//! Criterion benchmarks of the framework layers themselves: tracing,
//! compilation, JIT-cache dispatch, fusion benefit, memory-pool reuse.

use criterion::{black_box, criterion_group, criterion_main, Criterion};

fn ctx() -> accel_sim::Context {
    accel_sim::Context::new(accel_sim::NodeCalib::default())
}

fn bench_trace_compile(c: &mut Criterion) {
    use arrayjit::{compile::compile, DType, TraceContext};
    let mut g = c.benchmark_group("arrayjit");
    g.bench_function("trace_pixels_like_program", |b| {
        b.iter(|| {
            let tc = TraceContext::new();
            let x = tc.param(vec![64, 128], DType::F64);
            let y = tc.param(vec![64, 128], DType::F64);
            let z = (&x * &y).sin().cos().sqrt().atan2(&x).mul_s(2.0);
            let m = z.gt_s(0.5).select(&z, &(&x + &y));
            black_box(tc.finish(&[&m]))
        });
    });
    g.bench_function("compile_passes", |b| {
        let tc = TraceContext::new();
        let x = tc.param(vec![64, 128], DType::F64);
        let dup = x.sin() + x.sin(); // CSE fodder
        let _dead = x.exp().log();
        let g_ = tc.finish(&[&dup]);
        b.iter(|| black_box(compile("bench", &g_)));
    });
    g.finish();
}

fn bench_dispatch(c: &mut Criterion) {
    use arrayjit::{Array, Backend, Jit};
    let mut g = c.benchmark_group("arrayjit_dispatch");
    g.bench_function("cached_call_small", |b| {
        let mut f = Jit::new("d", |_tc, p, _| vec![&p[0] * &p[1]]);
        let mut context = ctx();
        let (x, y) = (
            Array::from_f64(vec![1.0; 64]),
            Array::from_f64(vec![2.0; 64]),
        );
        let args = [x.view(), y.view()];
        f.call(&mut context, Backend::Device, &args); // compile once
        b.iter(|| {
            black_box(f.call(&mut context, Backend::Device, &args));
        });
    });
    g.finish();
}

fn bench_pool(c: &mut Criterion) {
    use offload::Pool;
    let mut g = c.benchmark_group("offload_pool");
    for (label, pooled) in [("pool", true), ("raw", false)] {
        g.bench_function(label, |b| {
            let mut context = ctx();
            let mut pool: Pool<f64> = if pooled {
                Pool::new()
            } else {
                Pool::disabled()
            };
            b.iter(|| {
                let buf = pool.alloc(&mut context, 4096).unwrap();
                pool.free(&mut context, buf);
            });
        });
    }
    g.finish();
}

fn bench_target_region(c: &mut Criterion) {
    use offload::{target_parallel_for, KernelSpec};
    let mut g = c.benchmark_group("offload_region");
    g.bench_function("saxpy_64k", |b| {
        let mut context = ctx();
        let spec = KernelSpec::uniform("saxpy", 2.0, 24.0);
        let x = vec![1.0f64; 65536];
        let mut y = vec![0.0f64; 65536];
        b.iter(|| {
            target_parallel_for(&mut context, &spec, 65536, |i| {
                y[i] += 2.5 * x[i];
            });
            black_box(&y);
        });
    });
    g.finish();
}

criterion_group!(
    name = benches;
    config = quick_config();
    targets =
    bench_trace_compile,
    bench_dispatch,
    bench_pool,
    bench_target_region
);

/// Short measurement windows: the benches cover many targets on a
/// single-core CI-like box; Criterion's defaults would take tens of
/// minutes for no extra insight at this granularity.
fn quick_config() -> Criterion {
    Criterion::default()
        .sample_size(10)
        .warm_up_time(std::time::Duration::from_millis(300))
        .measurement_time(std::time::Duration::from_millis(800))
}

criterion_main!(benches);
