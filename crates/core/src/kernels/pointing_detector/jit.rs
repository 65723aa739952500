//! arrayjit port: the quaternion product written as pure NumPy-style array
//! algebra over dense `[n_det, n_samp]` component arrays, with the 0/1
//! interval mask selecting padded (gap) samples back to their old values —
//! JAX-style "dummy work" on padding.

use accel_sim::Context;
use arrayjit::{Backend, Jit, Tracer};

use crate::memory::{JitStore, ResidencyError};
use crate::workspace::{BufferId, Workspace};

/// Build the traced program (compiled lazily per signature).
pub fn build() -> Jit {
    Jit::new("pointing_detector", |_tc, params, _statics| {
        let (bore, fp, old, mask) = (&params[0], &params[1], &params[2], &params[3]);
        let n_samp = bore.shape().dim(0);
        let n_det = fp.shape().dim(0);

        // Boresight components [n_samp], focal-plane components [n_det, 1].
        let a: Vec<Tracer> = (0..4).map(|c| bore.index_axis(1, c)).collect();
        let b: Vec<Tracer> = (0..4)
            .map(|c| fp.index_axis(1, c).reshape(vec![n_det, 1]))
            .collect();
        let (ax, ay, az, aw) = (&a[0], &a[1], &a[2], &a[3]);
        let (bx, by, bz, bw) = (&b[0], &b[1], &b[2], &b[3]);

        // Hamilton product (bore ⊗ fp), broadcast to [n_det, n_samp].
        let qx = aw * bx + ax * bw + ay * bz - az * by;
        let qy = aw * by - ax * bz + ay * bw + az * bx;
        let qz = aw * bz + ax * by - ay * bx + az * bw;
        let qw = aw * bw - ax * bx - ay * by - az * bz;
        let fresh = qx.stack_last(&[&qy, &qz, &qw]); // [n_det, n_samp, 4]

        // Padded lanes (mask == 0) keep the old values.
        let keep = mask.gt_s(0.5).reshape(vec![1, n_samp, 1]);
        vec![keep.select(&fresh, old)]
    })
}

/// Run against resident arrays, replacing `Quats` functionally.
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
    let bore = store.array(BufferId::Boresight)?.view_as(vec![n_samp, 4]);
    let fp = store.array(BufferId::FpQuats)?.view_as(vec![n_det, 4]);
    let old = store
        .array(BufferId::Quats)?
        .view_as(vec![n_det, n_samp, 4]);

    let out = jit
        .call(ctx, backend, &[bore, fp, old, mask])
        .remove(0)
        .reshaped(vec![n_det * n_samp * 4]);
    store.replace(BufferId::Quats, out)?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::memory::AccelStore;
    use crate::testutil::test_workspace;
    use accel_sim::NodeCalib;

    fn run_jit(backend: Backend) -> (Workspace, Context) {
        let mut ws = test_workspace(3, 120, 8);
        let mut ctx = Context::new(NodeCalib::default());
        let mut store = if backend == Backend::Cpu {
            AccelStore::jit_host()
        } else {
            AccelStore::jit()
        };
        for id in [BufferId::Boresight, BufferId::FpQuats, BufferId::Quats] {
            store.ensure_device(&mut ctx, &ws, id).unwrap();
        }
        let mut jit = build();
        if let AccelStore::Jit(s) = &mut store {
            run(&mut ctx, backend, s, &mut jit, &ws).unwrap();
        }
        store.update_host(&mut ctx, &mut ws, BufferId::Quats);
        (ws, ctx)
    }

    #[test]
    fn matches_cpu_implementation() {
        let mut ws_cpu = test_workspace(3, 120, 8);
        let mut ctx = Context::new(NodeCalib::default());
        super::super::cpu::run(&mut ctx, 4, &mut ws_cpu);

        let (ws_jit, jit_ctx) = run_jit(Backend::Device);
        for (i, (a, b)) in ws_cpu.obs.quats.iter().zip(&ws_jit.obs.quats).enumerate() {
            assert!((a - b).abs() < 1e-13, "quat elem {i}: {a} vs {b}");
        }
        // The program was compiled once and launched fused stages.
        assert_eq!(jit_ctx.stats()["pointing_detector/jit_compile"].calls, 1);
        assert!(jit_ctx
            .stats()
            .keys()
            .any(|k| k.starts_with("pointing_detector/fused")));
    }

    #[test]
    fn cpu_backend_matches_device_backend() {
        let (dev, _) = run_jit(Backend::Device);
        let (cpu, cpu_ctx) = run_jit(Backend::Cpu);
        assert_eq!(dev.obs.quats, cpu.obs.quats);
        // No device kernels were launched on the CPU backend.
        assert_eq!(cpu_ctx.trace().kernel_count(), 0);
    }
}
