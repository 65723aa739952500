//! arrayjit port: a masked constant write — the smallest traced program in
//! the suite.

use accel_sim::Context;
use arrayjit::{Backend, Jit};

use crate::memory::{JitStore, ResidencyError};
use crate::workspace::{BufferId, Workspace};

/// Build the traced program. Statics: `[nnz]`.
pub fn build() -> Jit {
    Jit::new("stokes_weights_I", |_tc, params, statics| {
        let (old, mask) = (&params[0], &params[1]);
        let nnz = statics[0] as usize;
        let n_samp = mask.shape().dim(0);
        let n_det = old.shape().dim(0);

        // Only component 0 changes (to 1.0); the other components pass
        // through untouched, exactly like the scalar kernel.
        let keep = mask.gt_s(0.5).reshape(vec![1, n_samp, 1]);
        let w0 = old.index_axis(2, 0).mul_s(0.0).add_s(1.0);
        let mut parts: Vec<arrayjit::Tracer> = vec![w0];
        for c in 1..nnz {
            parts.push(old.index_axis(2, c));
        }
        let refs: Vec<&arrayjit::Tracer> = parts[1..].iter().collect();
        let fresh = parts[0].stack_last(&refs);
        let _ = n_det;
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
    let n_det = ws.obs.n_det;
    let n_samp = ws.obs.n_samples;
    let nnz = ws.geom.nnz;
    store.stage_sample_mask(ctx, ws);
    let mask = store.sample_mask().view();
    let old = store
        .array(BufferId::Weights)?
        .view_as(vec![n_det, n_samp, nnz]);

    let out = jit
        .call_static(ctx, backend, &[old, mask], &[nnz as i64])
        .remove(0)
        .reshaped(vec![n_det * n_samp * nnz]);
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
    fn matches_cpu_implementation() {
        let mut ws_cpu = test_workspace(2, 80, 4);
        for (i, w) in ws_cpu.obs.weights.iter_mut().enumerate() {
            *w = (i % 7) as f64 * 0.5;
        }
        let mut ws_jit = ws_cpu.clone();
        let mut ctx = Context::new(NodeCalib::default());
        super::super::cpu::run(&mut ctx, 2, &mut ws_cpu);

        let mut store = AccelStore::jit();
        store
            .ensure_device(&mut ctx, &ws_jit, BufferId::Weights)
            .unwrap();
        let mut jit = build();
        if let AccelStore::Jit(s) = &mut store {
            run(&mut ctx, Backend::Device, s, &mut jit, &ws_jit).unwrap();
        }
        store.update_host(&mut ctx, &mut ws_jit, BufferId::Weights);
        assert_eq!(ws_cpu.obs.weights, ws_jit.obs.weights);
    }
}
