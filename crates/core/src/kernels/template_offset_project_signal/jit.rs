//! arrayjit port: pad the masked signal to `n_amp × step_length`, reshape,
//! and reduce over the innermost axis — exactly the `reduce_sum(mul(...))`
//! shape the compiler's `LibraryDot` pattern recognises and routes to the
//! "vendor library" (the paper's explanation for JAX's 45× on this
//! kernel).

use accel_sim::Context;
use arrayjit::{Backend, DType, Jit, StageKind};

use crate::memory::{JitStore, ResidencyError};
use crate::workspace::{BufferId, Workspace};

/// Build the traced program. Statics: `[step_length, n_amp, n_samp]`.
pub fn build() -> Jit {
    Jit::new("template_offset_project_signal", |tc, params, statics| {
        let (signal, amp_out, mask) = (&params[0], &params[1], &params[2]);
        let step = statics[0] as usize;
        let n_amp = statics[1] as usize;
        let n_samp = statics[2] as usize;
        let n_det = signal.shape().dim(0);
        let padded = n_amp * step;

        let (sig_pad, gate) = if padded == n_samp {
            // Exact fit: a pure reshape, no data movement — the common
            // case, and the one where the compiled program is *only* the
            // library dot.
            (
                signal.reshape(vec![n_det, n_amp, step]),
                mask.reshape(vec![1, n_amp, step]),
            )
        } else {
            // Pad the per-sample gate (interval mask × in-bounds mask) and
            // the signal to the static padded length via a clamped gather.
            let pos = tc.iota(padded);
            let in_bounds = pos.lt(&tc.constant_i64(n_samp as i64)).convert(DType::F64);
            let clamped = pos.min(&tc.constant_i64(n_samp as i64 - 1));
            let gate = (&mask.gather(&clamped) * &in_bounds).reshape(vec![1, n_amp, step]);
            let det_base = tc
                .iota(n_det)
                .mul_s_i(n_samp as i64)
                .reshape(vec![n_det, 1]);
            let gidx = det_base + clamped.reshape(vec![1, padded]);
            let sig_pad = signal
                .reshape(vec![n_det * n_samp])
                .gather(&gidx)
                .reshape(vec![n_det, n_amp, step]);
            (sig_pad, gate)
        };

        // The dot: reduce(mul) over the innermost axis -> LibraryDot.
        let projected = (sig_pad * gate).reduce_sum(2); // [n_det, n_amp]
        vec![amp_out + projected]
    })
}

/// Run against resident arrays, replacing `AmpOut` functionally.
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
    let amp_out = store
        .array(BufferId::AmpOut)?
        .view_as(vec![n_det, ws.n_amp]);

    let out = jit
        .call_static(
            ctx,
            backend,
            &[signal, amp_out, mask],
            &[ws.step_length as i64, ws.n_amp as i64, n_samp as i64],
        )
        .remove(0)
        .reshaped(vec![n_det * ws.n_amp]);
    store.replace(BufferId::AmpOut, out)?;
    Ok(())
}

/// Whether the compiled program hit the library-dot path (exposed for the
/// ablation bench).
pub fn used_library_path(jit: &Jit, args: &[arrayjit::ArrayView], statics: &[i64]) -> bool {
    jit.program_for(args, statics)
        .map(|p| p.stages.iter().any(|s| s.kind == StageKind::LibraryDot))
        .unwrap_or(false)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::memory::AccelStore;
    use crate::testutil::test_workspace;
    use accel_sim::NodeCalib;

    #[test]
    fn matches_cpu_within_reduction_tolerance() {
        let mut ws_cpu = test_workspace(3, 130, 4);
        let mut ws_jit = ws_cpu.clone();
        let mut ctx = Context::new(NodeCalib::default());
        super::super::cpu::run(&mut ctx, 2, &mut ws_cpu);

        let mut store = AccelStore::jit();
        for id in [BufferId::Signal, BufferId::AmpOut] {
            store.ensure_device(&mut ctx, &ws_jit, id).unwrap();
        }
        let mut jit = build();
        if let AccelStore::Jit(s) = &mut store {
            run(&mut ctx, Backend::Device, s, &mut jit, &ws_jit).unwrap();
        }
        store.update_host(&mut ctx, &mut ws_jit, BufferId::AmpOut);
        for (a, b) in ws_cpu.amp_out.iter().zip(&ws_jit.amp_out) {
            assert!((a - b).abs() < 1e-10 * a.abs().max(1.0), "{a} vs {b}");
        }
    }

    #[test]
    fn padded_path_matches_cpu_when_step_does_not_divide() {
        let mut ws_cpu = test_workspace(2, 130, 4);
        ws_cpu.step_length = 17; // 130 % 17 != 0 -> gather/pad path
        ws_cpu.n_amp = 130usize.div_ceil(17);
        let n = ws_cpu.obs.n_det * ws_cpu.n_amp;
        ws_cpu.amplitudes = vec![0.25; n];
        ws_cpu.amp_out = vec![0.0; n];
        ws_cpu.precond = vec![1.0; n];
        let mut ws_jit = ws_cpu.clone();
        let mut ctx = Context::new(NodeCalib::default());
        super::super::cpu::run(&mut ctx, 2, &mut ws_cpu);

        let mut store = AccelStore::jit();
        for id in [BufferId::Signal, BufferId::AmpOut] {
            store.ensure_device(&mut ctx, &ws_jit, id).unwrap();
        }
        let mut jit = build();
        if let AccelStore::Jit(s) = &mut store {
            run(&mut ctx, Backend::Device, s, &mut jit, &ws_jit).unwrap();
        }
        store.update_host(&mut ctx, &mut ws_jit, BufferId::AmpOut);
        for (a, b) in ws_cpu.amp_out.iter().zip(&ws_jit.amp_out) {
            assert!((a - b).abs() < 1e-10 * a.abs().max(1.0), "{a} vs {b}");
        }
    }

    #[test]
    fn compiler_hits_the_library_dot_path() {
        let ws = test_workspace(2, 100, 4);
        let mut ctx = Context::new(NodeCalib::default());
        let mut store = AccelStore::jit();
        for id in [BufferId::Signal, BufferId::AmpOut] {
            store.ensure_device(&mut ctx, &ws, id).unwrap();
        }
        let mut jit = build();
        if let AccelStore::Jit(s) = &mut store {
            run(&mut ctx, Backend::Device, s, &mut jit, &ws).unwrap();
        }
        assert!(
            ctx.stats().keys().any(|k| k.contains("librarydot")),
            "stats: {:?}",
            ctx.stats().keys().collect::<Vec<_>>()
        );
    }
}
