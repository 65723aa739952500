//! arrayjit port: masked per-component scatter-adds into a fresh map,
//! summed with the resident accumulation — the functional
//! `zmap.at[pix, :].add(dw * sig * w)`.

use accel_sim::Context;
use arrayjit::{Backend, DType, Jit, Tracer};

use crate::memory::{JitStore, ResidencyError};
use crate::workspace::{BufferId, Workspace};

/// Build the traced program. Statics: `[nnz]`.
pub fn build() -> Jit {
    Jit::new("build_noise_weighted", |_tc, params, statics| {
        let (pixels, weights, signal, det_weights, zmap, mask) = (
            &params[0], &params[1], &params[2], &params[3], &params[4], &params[5],
        );
        let nnz = statics[0];
        let n_det = det_weights.shape().dim(0);
        let n_samp = mask.shape().dim(0);
        let map_len = zmap.shape().dim(0);

        // Clamp invalid (-1) pixels to 0; their contribution is gated to
        // zero before the scatter.
        let zero = pixels.mul_s_i(0);
        let safe = pixels.max(&zero);
        let valid = pixels.ge(&zero).convert(DType::F64);
        let gate = &valid * &mask.reshape(vec![1, n_samp]);

        let dw = det_weights.reshape(vec![n_det, 1]);
        let base = signal * &dw * gate;

        let mut acc: Option<Tracer> = None;
        for c in 0..nnz {
            let flat = safe.mul_s_i(nnz).add_s_i(c);
            let val = &base * &weights.index_axis(2, c as usize);
            let scat = val.scatter_add(&flat, map_len);
            acc = Some(match acc {
                None => scat,
                Some(a) => a + scat,
            });
        }
        vec![zmap + acc.expect("nnz >= 1")]
    })
}

/// Run against resident arrays, replacing `ZMap` functionally.
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
    let pixels = store.array(BufferId::Pixels)?.view_as(vec![n_det, n_samp]);
    let weights = store
        .array(BufferId::Weights)?
        .view_as(vec![n_det, n_samp, nnz]);
    let signal = store.array(BufferId::Signal)?.view_as(vec![n_det, n_samp]);
    let det_weights = store.array(BufferId::DetWeights)?.view();
    let zmap = store.array(BufferId::ZMap)?.view();

    let out = jit
        .call_static(
            ctx,
            backend,
            &[pixels, weights, signal, det_weights, zmap, mask],
            &[nnz as i64],
        )
        .remove(0);
    store.replace(BufferId::ZMap, out)?;
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
        let mut ws_cpu = test_workspace(3, 120, 8);
        let mut ctx = Context::new(NodeCalib::default());
        super::super::super::pointing_detector::cpu::run(&mut ctx, 2, &mut ws_cpu);
        super::super::super::pixels_healpix::cpu::run(&mut ctx, 2, &mut ws_cpu);
        super::super::super::stokes_weights_iqu::cpu::run(&mut ctx, 2, &mut ws_cpu);
        let mut ws_jit = ws_cpu.clone();
        super::super::cpu::run(&mut ctx, 2, &mut ws_cpu);

        let mut store = AccelStore::jit();
        for id in [
            BufferId::Pixels,
            BufferId::Weights,
            BufferId::Signal,
            BufferId::DetWeights,
            BufferId::ZMap,
        ] {
            store.ensure_device(&mut ctx, &ws_jit, id).unwrap();
        }
        let mut jit = build();
        if let AccelStore::Jit(s) = &mut store {
            run(&mut ctx, Backend::Device, s, &mut jit, &ws_jit).unwrap();
        }
        store.update_host(&mut ctx, &mut ws_jit, BufferId::ZMap);
        for (a, b) in ws_cpu.zmap.iter().zip(&ws_jit.zmap) {
            assert!((a - b).abs() < 1e-12, "{a} vs {b}");
        }
    }

    #[test]
    fn scatter_stages_are_charged() {
        let mut ws = test_workspace(1, 50, 8);
        let mut ctx = Context::new(NodeCalib::default());
        super::super::super::pointing_detector::cpu::run(&mut ctx, 2, &mut ws);
        super::super::super::pixels_healpix::cpu::run(&mut ctx, 2, &mut ws);
        super::super::super::stokes_weights_iqu::cpu::run(&mut ctx, 2, &mut ws);
        let mut store = AccelStore::jit();
        for id in [
            BufferId::Pixels,
            BufferId::Weights,
            BufferId::Signal,
            BufferId::DetWeights,
            BufferId::ZMap,
        ] {
            store.ensure_device(&mut ctx, &ws, id).unwrap();
        }
        let mut jit = build();
        if let AccelStore::Jit(s) = &mut store {
            run(&mut ctx, Backend::Device, s, &mut jit, &ws).unwrap();
        }
        assert!(ctx
            .stats()
            .keys()
            .any(|k| k.starts_with("build_noise_weighted/")));
    }
}
