//! End-to-end integration tests on the paper's evaluation application:
//! protected HotSpot3D runs across the whole stack
//! (hotspot → stencil → core → fault → metrics).

use stencil_abft::fault::{random_flips, BitFlip, Campaign, Method};
use stencil_abft::hotspot::{build_sim, Scenario};
use stencil_abft::prelude::*;

fn tiny_campaign(seed: u64) -> Campaign<f32, impl Fn() -> StencilSim<f32>> {
    let scenario = Scenario::tile_tiny();
    let params = scenario.params();
    let factory = move || build_sim::<f32>(&params, seed, Exec::Serial);
    Campaign::new(factory, scenario.iters)
}

#[test]
fn error_free_protected_runs_are_bitwise_identical_to_unprotected() {
    let campaign = tiny_campaign(5);
    let cfg = AbftConfig::<f32>::paper_defaults().with_period(8);
    for method in Method::all() {
        let r = campaign.run_once(method, cfg, None);
        assert_eq!(r.l2, 0.0, "{method:?} perturbed the data");
        assert!(!r.detected(), "{method:?} raised a false positive");
    }
}

#[test]
fn campaign_over_random_flips_matches_paper_shape() {
    // A miniature Fig. 9: online bounds the error, offline erases
    // detected errors, no-ABFT can blow up.
    let campaign = tiny_campaign(6);
    let scenario = Scenario::tile_tiny();
    let cfg = AbftConfig::<f32>::paper_defaults().with_period(8);
    let flips = random_flips(99, 12, scenario.iters, scenario.dims, 32);
    let plan: Vec<Option<BitFlip>> = flips.into_iter().map(Some).collect();

    let no = campaign.run_many(Method::NoAbft, cfg, &plan);
    let on = campaign.run_many(Method::Online, cfg, &plan);
    let off = campaign.run_many(Method::Offline, cfg, &plan);

    let max =
        |rs: &[stencil_abft::fault::RunRecord]| rs.iter().map(|r| r.l2).fold(0.0f64, f64::max);
    // Every injected error that the protectors detect is handled; the
    // offline scheme ends bit-exact whenever it detected the fault.
    for r in &off {
        if r.detected() {
            assert_eq!(r.l2, 0.0, "offline failed to erase a detected error");
        }
    }
    // Online never ends worse than unprotected on the same fault.
    for (o, n) in on.iter().zip(&no) {
        if n.l2.is_finite() {
            assert!(
                o.l2 <= n.l2.max(1e-6) * 1.001,
                "online worse than unprotected: {} vs {}",
                o.l2,
                n.l2
            );
        }
    }
    // And strictly better in aggregate when anything detectable struck.
    if no.iter().any(|r| r.detected() || r.l2 > 1.0) {
        assert!(max(&on) <= max(&no));
    }
}

#[test]
fn sign_bit_flip_is_always_detected_and_fixed_online() {
    let campaign = tiny_campaign(8);
    let scenario = Scenario::tile_tiny();
    let cfg = AbftConfig::<f32>::paper_defaults();
    for rep in 0..5 {
        let flip = BitFlip {
            iteration: 3 + rep,
            x: 2 + rep,
            y: 5,
            z: rep % 4,
            bit: 31,
        };
        let r = campaign.run_once(Method::Online, cfg, Some(flip));
        assert!(r.detected(), "sign flip missed at rep {rep}");
        assert_eq!(r.stats.corrections, 1);
        assert_eq!(r.l2, 0.0, "rep {rep}");
        let _ = scenario;
    }
}

#[test]
fn low_mantissa_bits_are_below_threshold_as_in_fig10() {
    // Bits 0..=9 of f32 on ~80-valued data change the value by less than
    // ε·|checksum|: undetectable by design (paper Fig. 10, bits 0..12).
    let campaign = tiny_campaign(9);
    let cfg = AbftConfig::<f32>::paper_defaults();
    for bit in [0u32, 3, 6, 9] {
        let flip = BitFlip {
            iteration: 4,
            x: 3,
            y: 3,
            z: 1,
            bit,
        };
        let r = campaign.run_once(Method::Online, cfg, Some(flip));
        assert!(!r.detected(), "bit {bit} unexpectedly detected");
        // The leftover error is itself negligible.
        assert!(r.l2 < 1e-2, "bit {bit}: l2 = {}", r.l2);
    }
}

#[test]
fn offline_period_sweep_recovers_and_costs_recomputation() {
    let campaign = tiny_campaign(10);
    let scenario = Scenario::tile_tiny();
    for period in [1usize, 4, 8, 16] {
        let cfg = AbftConfig::<f32>::paper_defaults().with_period(period);
        let flip = BitFlip {
            iteration: 9,
            x: 4,
            y: 4,
            z: 2,
            bit: 28,
        };
        let r = campaign.run_once(Method::Offline, cfg, Some(flip));
        assert!(r.detected(), "Δ={period}: fault missed");
        assert_eq!(r.l2, 0.0, "Δ={period}: error not erased");
        assert_eq!(r.stats.rollbacks, 1);
        // Recomputed steps never exceed the window length.
        assert!(r.stats.recomputed_steps <= period.min(scenario.iters));
    }
}

#[test]
fn parallel_and_serial_protected_runs_agree() {
    let scenario = Scenario::tile_tiny();
    let params = scenario.params();
    let cfg = AbftConfig::<f32>::paper_defaults();
    let run = |exec: Exec| {
        let mut sim = build_sim::<f32>(&params, 3, exec);
        let mut abft = OnlineAbft::new(&sim, cfg);
        for _ in 0..scenario.iters {
            abft.step(&mut sim, &NoHook);
        }
        sim.current().clone()
    };
    assert_eq!(run(Exec::Serial), run(Exec::Parallel));
}

#[test]
fn hotspot_large_preset_has_paper_parameters() {
    let s = Scenario::tile_large();
    assert_eq!(s.dims, (512, 512, 8));
    assert_eq!(s.iters, 256);
    // Spot-check that the big tile builds and steps (one iteration only).
    let params = s.params();
    let mut sim = build_sim::<f32>(&params, 1, Exec::Parallel);
    let mut abft = OnlineAbft::new(&sim, AbftConfig::<f32>::paper_defaults());
    let out = abft.step(&mut sim, &NoHook);
    assert!(out.is_clean());
}
