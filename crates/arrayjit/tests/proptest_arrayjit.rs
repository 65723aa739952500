//! Property-based tests: the compiler must preserve semantics, and the two
//! backends must agree bit-for-bit.

use accel_sim::{Context, NodeCalib};
use arrayjit::{Array, Backend, Jit};
use proptest::prelude::*;

fn ctx() -> Context {
    Context::new(NodeCalib::default())
}

fn finite_vec(len: usize) -> impl Strategy<Value = Vec<f64>> {
    proptest::collection::vec(-1e6f64..1e6, len)
}

proptest! {
    /// A redundant traced expression (CSE + DCE fodder) computes the same
    /// values as the plain formula.
    #[test]
    fn compiler_preserves_semantics(xs in finite_vec(32)) {
        let mut f = Jit::new("p", |tc, p, _| {
            let x = &p[0];
            // sin(x) appears twice (CSE), dead exp branch (DCE).
            let _dead = x.abs().exp();
            let s1 = x.sin();
            let s2 = x.sin();
            vec![&s1 + &s2 + tc.constant(1.0)]
        });
        let out = f.call(&mut ctx(), Backend::Device, &[Array::from_f64(xs.clone()).view()]);
        for (o, x) in out[0].as_f64().iter().zip(&xs) {
            let expected = 2.0 * x.sin() + 1.0;
            prop_assert!((o - expected).abs() < 1e-12);
        }
    }

    /// Device and CPU backends produce identical results (only the charged
    /// cost differs).
    #[test]
    fn backends_agree(xs in finite_vec(16), ys in finite_vec(16)) {
        let mut f = Jit::new("b", |tc, p, _| {
            let prod = &p[0] * &p[1];
            let mask = prod.gt(&tc.constant(0.0));
            vec![mask.select(&prod.sqrt(), &prod.neg())]
        });
        let (x, y) = (Array::from_f64(xs), Array::from_f64(ys));
        let args = [x.view(), y.view()];
        let dev = f.call(&mut ctx(), Backend::Device, &args);
        let cpu = f.call(&mut ctx(), Backend::Cpu, &args);
        prop_assert_eq!(&dev[0], &cpu[0]);
    }

    /// scatter_add followed by a full reduction conserves the total sum.
    #[test]
    fn scatter_conserves_mass(
        vals in finite_vec(64),
        idx in proptest::collection::vec(0i64..16, 64),
    ) {
        let mut f = Jit::new("sc", |_tc, p, _| {
            vec![p[0].scatter_add(&p[1], 16)]
        });
        let out = f.call(
            &mut ctx(),
            Backend::Device,
            &[Array::from_f64(vals.clone()).view(), Array::from_i64(idx).view()],
        );
        let total: f64 = out[0].as_f64().iter().sum();
        let expected: f64 = vals.iter().sum();
        prop_assert!((total - expected).abs() < 1e-6_f64.max(expected.abs() * 1e-12));
    }

    /// gather(iota) is the identity.
    #[test]
    fn gather_iota_is_identity(xs in finite_vec(40)) {
        let n = xs.len();
        let mut f = Jit::new("gi", move |tc, p, _| {
            vec![p[0].gather(&tc.iota(n))]
        });
        let out = f.call(&mut ctx(), Backend::Device, &[Array::from_f64(xs.clone()).view()]);
        prop_assert_eq!(out[0].as_f64(), xs.as_slice());
    }

    /// reduce_sum over either axis of a matrix equals the full sum when
    /// chained, and matches a scalar reference.
    #[test]
    fn reductions_match_reference(xs in finite_vec(24)) {
        let mut f = Jit::new("r", |_tc, p, _| {
            vec![p[0].reduce_sum(1).reduce_sum(0), p[0].reduce_sum(0).reduce_sum(0)]
        });
        let m = Array::from_f64_shaped(vec![4, 6], xs.clone());
        let out = f.call(&mut ctx(), Backend::Device, &[m.view()]);
        let expected: f64 = xs.iter().sum();
        prop_assert!((out[0].as_f64()[0] - expected).abs() < 1e-6);
        prop_assert!((out[1].as_f64()[0] - expected).abs() < 1e-6);
    }

    /// The JIT cache never recompiles for a repeated signature, for
    /// arbitrary shapes.
    #[test]
    fn cache_hit_rate(len in 1usize..64, repeats in 1usize..5) {
        let mut f = Jit::new("c", |_tc, p, _| vec![p[0].mul_s(2.0)]);
        let mut c = ctx();
        for _ in 0..repeats {
            f.call(&mut c, Backend::Device, &[Array::zeros(vec![len]).view()]);
        }
        prop_assert_eq!(f.compiled_signatures(), 1);
        prop_assert_eq!(c.stats()["c/jit_compile"].calls, 1);
        prop_assert_eq!(c.stats()["c/dispatch"].calls as usize, repeats);
    }
}
