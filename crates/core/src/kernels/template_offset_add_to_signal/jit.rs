//! arrayjit port: gather the step amplitude for every sample, masked add.

use accel_sim::Context;
use arrayjit::{Backend, Jit};

use crate::memory::{JitStore, ResidencyError};
use crate::workspace::{BufferId, Workspace};

/// Build the traced program. Statics: `[step_length, n_amp]`.
pub fn build() -> Jit {
    Jit::new("template_offset_add_to_signal", |tc, params, statics| {
        let (signal, amplitudes, mask) = (&params[0], &params[1], &params[2]);
        let step = statics[0];
        let n_amp = statics[1];
        let n_det = signal.shape().dim(0);
        let n_samp = signal.shape().dim(1);

        // Flat amplitude index per (det, sample): det * n_amp + s / step.
        let step_idx = tc.iota(n_samp).div_s_i(step).reshape(vec![1, n_samp]);
        let det_idx = tc.iota(n_det).mul_s_i(n_amp).reshape(vec![n_det, 1]);
        let flat = det_idx + step_idx; // [n_det, n_samp]
        let amp = amplitudes.gather(&flat);
        let gate = mask.reshape(vec![1, n_samp]);
        vec![signal + amp * gate]
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
    let amplitudes = store.array(BufferId::Amplitudes)?.view();

    let out = jit
        .call_static(
            ctx,
            backend,
            &[signal, amplitudes, mask],
            &[ws.step_length as i64, ws.n_amp as i64],
        )
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
        let mut ws_cpu = test_workspace(3, 110, 4);
        let mut ws_jit = ws_cpu.clone();
        let mut ctx = Context::new(NodeCalib::default());
        super::super::cpu::run(&mut ctx, 2, &mut ws_cpu);

        let mut store = AccelStore::jit();
        for id in [BufferId::Amplitudes, BufferId::Signal] {
            store.ensure_device(&mut ctx, &ws_jit, id).unwrap();
        }
        let mut jit = build();
        if let AccelStore::Jit(s) = &mut store {
            run(&mut ctx, Backend::Device, s, &mut jit, &ws_jit).unwrap();
        }
        store.update_host(&mut ctx, &mut ws_jit, BufferId::Signal);
        for (a, b) in ws_cpu.obs.signal.iter().zip(&ws_jit.obs.signal) {
            assert!((a - b).abs() < 1e-13, "{a} vs {b}");
        }
    }
}
