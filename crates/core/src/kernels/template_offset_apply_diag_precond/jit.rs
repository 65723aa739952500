//! arrayjit port: a single fused elementwise multiply.

use accel_sim::Context;
use arrayjit::{Backend, Jit};

use crate::memory::{JitStore, ResidencyError};
use crate::workspace::{BufferId, Workspace};

/// Build the traced program.
pub fn build() -> Jit {
    Jit::new(
        "template_offset_apply_diag_precond",
        |_tc, params, _statics| vec![&params[0] * &params[1]],
    )
}

/// Run against resident arrays, replacing `AmpOut` functionally.
pub fn run(
    ctx: &mut Context,
    backend: Backend,
    store: &mut JitStore,
    jit: &mut Jit,
    ws: &Workspace,
) -> Result<(), ResidencyError> {
    let _ = ws;
    let amps = store.array(BufferId::Amplitudes)?.view();
    let precond = store.array(BufferId::Precond)?.view();
    let out = jit.call(ctx, backend, &[amps, precond]).remove(0);
    store.replace(BufferId::AmpOut, out)?;
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
        let mut ws_cpu = test_workspace(2, 60, 4);
        let mut ws_jit = ws_cpu.clone();
        let mut ctx = Context::new(NodeCalib::default());
        super::super::cpu::run(&mut ctx, 2, &mut ws_cpu);

        let mut store = AccelStore::jit();
        for id in [BufferId::Amplitudes, BufferId::Precond, BufferId::AmpOut] {
            store.ensure_device(&mut ctx, &ws_jit, id).unwrap();
        }
        let mut jit = build();
        if let AccelStore::Jit(s) = &mut store {
            run(&mut ctx, Backend::Device, s, &mut jit, &ws_jit).unwrap();
        }
        store.update_host(&mut ctx, &mut ws_jit, BufferId::AmpOut);
        assert_eq!(ws_cpu.amp_out, ws_jit.amp_out);
    }
}
