//! Property-based tests of boundary-index resolution.

use abft_grid::{AxisHit, Boundary};
use proptest::prelude::*;

fn boundaries() -> impl Strategy<Value = Boundary<f64>> {
    prop_oneof![
        Just(Boundary::Clamp),
        Just(Boundary::Periodic),
        Just(Boundary::Zero),
        (-5.0f64..5.0).prop_map(Boundary::Constant),
        Just(Boundary::Reflect),
    ]
}

proptest! {
    #[test]
    fn in_range_is_always_identity(
        b in boundaries(),
        n in 1usize..100,
        q in 0usize..100,
    ) {
        prop_assume!(q < n);
        prop_assert_eq!(b.resolve(q as isize, n), AxisHit::In(q));
    }

    #[test]
    fn index_mapping_boundaries_stay_in_range(
        b in prop_oneof![
            Just(Boundary::<f64>::Clamp),
            Just(Boundary::Periodic),
            Just(Boundary::Reflect),
        ],
        n in 2usize..64,
        q in -60isize..120,
    ) {
        // Keep within the supported one-domain-width overhang.
        prop_assume!(q > -(n as isize) && q < 2 * n as isize);
        match b.resolve(q, n) {
            AxisHit::In(i) => prop_assert!(i < n),
            other => prop_assert!(false, "expected In, got {other:?}"),
        }
    }

    #[test]
    fn periodic_is_translation_invariant(
        n in 2usize..64,
        q in -30isize..60,
    ) {
        let b = Boundary::<f64>::Periodic;
        prop_assume!(q > -(n as isize) && q + n as isize >= 0);
        prop_assume!(q < n as isize); // q + n must stay below 2n
        let a = b.resolve(q, n);
        let c = b.resolve(q + n as isize, n);
        prop_assert_eq!(a, c);
    }

    #[test]
    fn clamp_is_monotone(
        n in 2usize..64,
        q1 in -30isize..90,
        q2 in -30isize..90,
    ) {
        prop_assume!(q1 <= q2);
        let b = Boundary::<f64>::Clamp;
        let within = |q: isize| q > -(n as isize) && q < 2 * n as isize;
        prop_assume!(within(q1) && within(q2));
        let (AxisHit::In(i1), AxisHit::In(i2)) = (b.resolve(q1, n), b.resolve(q2, n)) else {
            return Err(TestCaseError::fail("clamp must resolve to indices"));
        };
        prop_assert!(i1 <= i2);
    }

    #[test]
    fn reflect_is_an_involution_at_the_edge(
        n in 3usize..64,
        m in 1isize..3,
    ) {
        // u[-m] == u[m] and u[n-1+m] == u[n-1-m]
        prop_assume!((m as usize) < n);
        let b = Boundary::<f64>::Reflect;
        prop_assert_eq!(b.resolve(-m, n), AxisHit::In(m as usize));
        prop_assert_eq!(
            b.resolve(n as isize - 1 + m, n),
            AxisHit::In(n - 1 - m as usize)
        );
    }

    #[test]
    fn value_boundaries_never_touch_data(
        n in 1usize..64,
        q in -60isize..120,
        c in -5.0f64..5.0,
    ) {
        prop_assume!(q < 0 || q >= n as isize);
        prop_assume!(q > -(n as isize) && q < 2 * n as isize);
        prop_assert_eq!(Boundary::Zero.resolve(q, n), AxisHit::Value(0.0));
        prop_assert_eq!(Boundary::Constant(c).resolve(q, n), AxisHit::Value(c));
    }
}
