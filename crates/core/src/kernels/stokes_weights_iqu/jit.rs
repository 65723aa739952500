//! arrayjit port: the ψ formula as dense array algebra, mirroring the
//! scalar operation order bit-for-bit.

use accel_sim::Context;
use arrayjit::{Backend, Jit};

use crate::memory::{JitStore, ResidencyError};
use crate::workspace::{BufferId, Workspace};

/// Build the traced program.
pub fn build() -> Jit {
    Jit::new("stokes_weights_IQU", |_tc, params, _statics| {
        let (quats, eps, old, mask) = (&params[0], &params[1], &params[2], &params[3]);
        let n_det = eps.shape().dim(0);
        let n_samp = mask.shape().dim(0);

        let qx = quats.index_axis(2, 0);
        let qy = quats.index_axis(2, 1);
        let qz = quats.index_axis(2, 2);
        let qw = quats.index_axis(2, 3);

        // dir = R(q)·ẑ, orient = R(q)·x̂ (same expansions as quat.rs).
        let dx = (&qx * &qz + &qw * &qy).mul_s(2.0);
        let dy = (&qy * &qz - &qw * &qx).mul_s(2.0);
        let dz = (&qx * &qx + &qy * &qy).mul_s(-2.0).add_s(1.0);
        let ox = (&qy * &qy + &qz * &qz).mul_s(-2.0).add_s(1.0);
        let oy = (&qx * &qy + &qw * &qz).mul_s(2.0);
        let oz = (&qx * &qz - &qw * &qy).mul_s(2.0);

        let num = &dx * &oy - &dy * &ox;
        let den = &dz * &dx * &ox + &dz * &dy * &oy - (&dx * &dx + &dy * &dy) * &oz;
        let two_psi = num.atan2(&den).mul_s(2.0);
        let e = eps.reshape(vec![n_det, 1]);
        let w_i = two_psi.mul_s(0.0).add_s(1.0);
        let w_q = &e * &two_psi.cos();
        let w_u = &e * &two_psi.sin();
        let fresh = w_i.stack_last(&[&w_q, &w_u]); // [n_det, n_samp, 3]

        let keep = mask.gt_s(0.5).reshape(vec![1, n_samp, 1]);
        vec![keep.select(&fresh, old)]
    })
}

/// Run against resident arrays, replacing `Weights` functionally.
pub fn run(
    ctx: &mut Context,
    backend: Backend,
    store: &mut JitStore,
    jit: &mut Jit,
    ws: &Workspace,
) -> Result<(), ResidencyError> {
    assert_eq!(ws.geom.nnz, 3, "stokes_weights_IQU needs nnz == 3");
    let n_det = ws.obs.n_det;
    let n_samp = ws.obs.n_samples;
    store.stage_sample_mask(ctx, ws);
    let mask = store.sample_mask().view();
    let quats = store
        .array(BufferId::Quats)?
        .view_as(vec![n_det, n_samp, 4]);
    let eps = store.array(BufferId::DetEpsilon)?.view();
    let old = store
        .array(BufferId::Weights)?
        .view_as(vec![n_det, n_samp, 3]);

    let out = jit
        .call(ctx, backend, &[quats, eps, old, mask])
        .remove(0)
        .reshaped(vec![n_det * n_samp * 3]);
    store.replace(BufferId::Weights, out)?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::memory::AccelStore;
    use crate::testutil::test_workspace;
    use accel_sim::NodeCalib;

    #[test]
    fn matches_cpu_bit_exactly() {
        let mut ws_cpu = test_workspace(3, 140, 8);
        let mut ctx = Context::new(NodeCalib::default());
        super::super::super::pointing_detector::cpu::run(&mut ctx, 2, &mut ws_cpu);
        let mut ws_jit = ws_cpu.clone();
        super::super::cpu::run(&mut ctx, 2, &mut ws_cpu);

        let mut store = AccelStore::jit();
        for id in [BufferId::Quats, BufferId::DetEpsilon, BufferId::Weights] {
            store.ensure_device(&mut ctx, &ws_jit, id).unwrap();
        }
        let mut jit = build();
        if let AccelStore::Jit(s) = &mut store {
            run(&mut ctx, Backend::Device, s, &mut jit, &ws_jit).unwrap();
        }
        store.update_host(&mut ctx, &mut ws_jit, BufferId::Weights);
        assert_eq!(ws_cpu.obs.weights, ws_jit.obs.weights);
    }
}
