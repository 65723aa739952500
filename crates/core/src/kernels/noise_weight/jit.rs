//! arrayjit port: a masked broadcast multiply — one fused kernel.

use accel_sim::Context;
use arrayjit::{Backend, Jit};

use crate::memory::{JitStore, ResidencyError};
use crate::workspace::{BufferId, Workspace};

/// Build the traced program.
pub fn build() -> Jit {
    Jit::new("noise_weight", |_tc, params, _statics| {
        let (signal, det_weights, mask) = (&params[0], &params[1], &params[2]);
        let n_det = det_weights.shape().dim(0);
        let n_samp = mask.shape().dim(0);
        let w = det_weights.reshape(vec![n_det, 1]);
        let keep = mask.gt_s(0.5).reshape(vec![1, n_samp]);
        vec![keep.select(&(signal * &w), signal)]
    })
}

/// Run against resident arrays, replacing `Signal` functionally.
pub fn run(
    ctx: &mut Context,
    backend: Backend,
    store: &mut JitStore,
    jit: &mut Jit,
    ws: &Workspace,
) -> Result<(), ResidencyError> {
    let n_det = ws.obs.n_det;
    let n_samp = ws.obs.n_samples;
    store.stage_sample_mask(ctx, ws);
    let mask = store.sample_mask().view();
    let signal = store.array(BufferId::Signal)?.view_as(vec![n_det, n_samp]);
    let det_weights = store.array(BufferId::DetWeights)?.view();

    let out = jit
        .call(ctx, backend, &[signal, det_weights, mask])
        .remove(0)
        .reshaped(vec![n_det * n_samp]);
    store.replace(BufferId::Signal, out)?;
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
        let mut ws_cpu = test_workspace(3, 90, 4);
        let mut ws_jit = ws_cpu.clone();
        let mut ctx = Context::new(NodeCalib::default());
        super::super::cpu::run(&mut ctx, 2, &mut ws_cpu);

        let mut store = AccelStore::jit();
        for id in [BufferId::DetWeights, BufferId::Signal] {
            store.ensure_device(&mut ctx, &ws_jit, id).unwrap();
        }
        let mut jit = build();
        if let AccelStore::Jit(s) = &mut store {
            run(&mut ctx, Backend::Device, s, &mut jit, &ws_jit).unwrap();
        }
        store.update_host(&mut ctx, &mut ws_jit, BufferId::Signal);
        assert_eq!(ws_cpu.obs.signal, ws_jit.obs.signal);
    }

    #[test]
    fn compiles_to_a_single_fused_stage() {
        let ws = test_workspace(1, 40, 4);
        let mut ctx = Context::new(NodeCalib::default());
        let mut store = AccelStore::jit();
        for id in [BufferId::DetWeights, BufferId::Signal] {
            store.ensure_device(&mut ctx, &ws, id).unwrap();
        }
        let mut jit = build();
        if let AccelStore::Jit(s) = &mut store {
            run(&mut ctx, Backend::Device, s, &mut jit, &ws).unwrap();
        }
        // Exactly one device kernel: everything fused.
        assert_eq!(ctx.trace().kernel_count(), 1);
    }
}
