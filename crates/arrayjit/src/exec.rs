//! Program execution: real numerics on the host, simulated cost on the
//! selected backend.
//!
//! The host runs the program's [`Plan`], built once at compile time: each
//! fused stage executes as block loops over its output index, with
//! intermediates in block-sized scratch, only materialised values in
//! full-size buffers, each buffer freed at its last use, and the arguments
//! borrowed rather than copied. Gathers, scatter-adds and reductions run by
//! their own routines. Results are exact and testable. Each call then
//! charges the [`accel_sim::Context`] according to the backend:
//!
//! * [`Backend::Device`] — one launch per compiled stage, with the fused
//!   profiles from [`crate::compile`]; intermediates come from the memory
//!   pool and are returned at the end of the call.
//! * [`Backend::Cpu`] — the XLA-CPU analogue: ops run *unfused*, single
//!   threaded, with materialised intermediates, at a calibrated efficiency
//!   (`FrameworkCalib::jit_cpu_backend_eff`). The paper found this backend
//!   7.4× slower than the parallel C++ baseline (§ 4.2).

use accel_sim as accel;

use crate::array::{Array, ArrayView, DType, Data};
use crate::compile::Program;
use crate::ir::{BinaryOp, Graph, NodeId, Op, UnaryOp};
use crate::plan::{Dst, Home, Inst, Kind, Loop, Plan, Src, Step, Walk, BLOCK};
use crate::shape::Shape;

/// Which backend a program call is charged to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Backend {
    /// The simulated accelerator.
    Device,
    /// The deliberately weak CPU backend.
    Cpu,
}

/// Execute `program` on `args`, charging `ctx`.
///
/// Returns the output arrays. Panics on signature mismatches (the same
/// errors JAX raises when a cached executable is called with wrong shapes —
/// the JIT cache in [`crate::jit`] prevents this by re-tracing).
pub fn run(
    ctx: &mut accel::Context,
    backend: Backend,
    program: &Program,
    args: &[ArrayView],
) -> Vec<Array> {
    assert_eq!(
        args.len(),
        program.graph.params.len(),
        "{}: expected {} arguments, got {}",
        program.name,
        program.graph.params.len(),
        args.len()
    );
    for (i, ((shape, dtype), arg)) in program.graph.params.iter().zip(args).enumerate() {
        assert_eq!(
            arg.shape(),
            shape,
            "{}: argument {i} shape {} does not match compiled signature {shape}",
            program.name,
            arg.shape()
        );
        assert_eq!(arg.dtype(), *dtype, "{}: argument {i} dtype", program.name);
    }

    charge(ctx, backend, program);
    evaluate(program, args)
}

/// Charge the simulator for one invocation of `program`.
fn charge(ctx: &mut accel::Context, backend: Backend, program: &Program) {
    let fw = ctx.calib.framework;
    match backend {
        Backend::Device => {
            // Per-call dispatch: cache lookup + argument hashing/staging.
            ctx.host_compute(format!("{}/dispatch", program.name), fw.jit_dispatch);
            // Intermediates live in the pool for the duration of the call,
            // inflated by the pool-slack factor.
            let scratch = (program.peak_stage_bytes as f64 * fw.jit_mem_overhead) as u64;
            let scratch_ok = ctx.device_alloc(scratch, true).is_ok();
            let mut device_seconds = 0.0;
            for stage in &program.stages {
                device_seconds += stage.profile.device_seconds(&ctx.calib.gpu);
                ctx.launch(stage.profile.clone(), 0.0);
            }
            // Runtime-level inefficiency proportional to the work
            // (paper footnote 10).
            let runtime_extra = device_seconds * (fw.jit_runtime_factor - 1.0).max(0.0);
            if runtime_extra > 0.0 {
                ctx.host_compute(format!("{}/runtime", program.name), runtime_extra);
            }
            if scratch_ok {
                ctx.device_free(scratch);
            }
        }
        Backend::Cpu => {
            // Unfused, single-core execution with materialised buffers.
            let cpu = ctx.calib.cpu;
            let eff = fw.jit_cpu_backend_eff;
            let mut seconds = fw.jit_dispatch;
            for node in &program.graph.nodes {
                let elems = node.shape.elements() as f64;
                let flops = node.op.flops_per_element() * elems;
                // Each unfused op reads its operands and writes its result.
                let mut bytes = (node.shape.elements() * node.dtype.size()) as f64;
                for o in node.op.operands() {
                    let n = program.graph.node(o);
                    bytes += (n.shape.elements() * n.dtype.size()) as f64;
                }
                let single_core_bw = cpu.socket_bw * 0.06;
                seconds += flops / (cpu.core_flops * eff) + bytes / single_core_bw;
            }
            ctx.host_compute(format!("{}/cpu_backend", program.name), seconds);
        }
    }
}

/// Run the program's plan over concrete values.
fn evaluate(program: &Program, args: &[ArrayView]) -> Vec<Array> {
    let graph = &program.graph;
    let plan = &program.plan;
    let mut frame = Frame {
        plan,
        args,
        buffers: vec![None; graph.nodes.len()],
    };
    for (step, frees) in plan.steps.iter().zip(&plan.frees) {
        match step {
            Step::Loop(l) => run_loop(&mut frame, graph, l),
            Step::Node(id) => {
                let data = eval_node(graph, *id, &frame);
                frame.buffers[*id] = Some(data);
            }
        }
        for &r in frees {
            frame.buffers[r] = None;
        }
    }

    // Move each output out of its buffer at its last occurrence; earlier
    // duplicates, arguments and constants are copied.
    let mut outputs = Vec::with_capacity(graph.outputs.len());
    for (k, &o) in graph.outputs.iter().enumerate() {
        let r = plan.root[o];
        let again = graph.outputs[k + 1..].iter().any(|&p| plan.root[p] == r);
        let data = match (&plan.homes[r], again) {
            (Home::Buffer, false) => frame.buffers[r].take().expect("output evaluated"),
            _ => frame.data(r).clone(),
        };
        outputs.push(Array::new(graph.node(o).shape.clone(), data));
    }
    outputs
}

/// The values of one call: borrowed arguments, plan constants and the
/// buffers alive so far.
struct Frame<'a> {
    plan: &'a Plan,
    args: &'a [ArrayView<'a>],
    buffers: Vec<Option<Data>>,
}

impl Frame<'_> {
    fn data(&self, root: NodeId) -> &Data {
        match &self.plan.homes[root] {
            Home::Arg(i) => self.args[*i].data(),
            Home::Const(d) => d,
            Home::Buffer => self.buffers[root]
                .as_ref()
                .expect("value read after its last use"),
            Home::Block => unreachable!("block value {root} read as a buffer"),
        }
    }
}

fn zeros(dtype: DType, len: usize) -> Data {
    match dtype {
        DType::F64 => Data::F64(vec![0.0; len]),
        DType::I64 => Data::I64(vec![0; len]),
        DType::Bool => Data::Bool(vec![false; len]),
    }
}

/// Run one fused loop: every instruction on one block, block by block.
fn run_loop(frame: &mut Frame, graph: &Graph, l: &Loop) {
    for &r in &l.buffers {
        frame.buffers[r] = Some(zeros(graph.node(r).dtype, l.len));
    }
    let block = BLOCK.min(l.len);
    let mut slots: Vec<Option<Data>> = l.slots.iter().map(|&t| Some(zeros(t, block))).collect();
    for b0 in (0..l.len).step_by(BLOCK) {
        let n = BLOCK.min(l.len - b0);
        for inst in &l.insts {
            // Take the destination out so the operands can be borrowed.
            let (mut out, range) = match inst.dst {
                Dst::Slot(s) => (slots[s].take(), 0..n),
                Dst::Buffer(r) => (frame.buffers[r].take(), b0..b0 + n),
            };
            let out_data = out.as_mut().expect("destination allocated");
            let ops = Operands {
                frame,
                slots: &slots,
                b0,
                n,
            };
            ops.exec(inst, out_data, range);
            match inst.dst {
                Dst::Slot(s) => slots[s] = out,
                Dst::Buffer(r) => frame.buffers[r] = out,
            }
        }
    }
}

/// The block `[b0, b0 + n)` of a loop, as seen by its instructions.
struct Operands<'a> {
    frame: &'a Frame<'a>,
    slots: &'a [Option<Data>],
    b0: usize,
    n: usize,
}

/// A block operand: a run of values, or one value for every lane.
#[derive(Clone, Copy)]
enum Val<'a, T> {
    Run(&'a [T]),
    Splat(T),
}

impl<T: Copy> Val<'_, T> {
    #[inline(always)]
    fn at(&self, i: usize) -> T {
        match self {
            Val::Run(v) => v[i],
            Val::Splat(x) => *x,
        }
    }
}

/// Element types with a typed view of [`Data`].
trait Elem: Copy {
    fn of(data: &Data) -> &[Self];
}

macro_rules! elem {
    ($t:ty, $variant:ident) => {
        impl Elem for $t {
            fn of(data: &Data) -> &[Self] {
                match data {
                    Data::$variant(v) => v,
                    other => panic!("expected {:?}, found {:?}", DType::$variant, other.dtype()),
                }
            }
        }
    };
}

elem!(f64, F64);
elem!(i64, I64);
elem!(bool, Bool);

#[inline(always)]
fn map1<A: Copy, R: Copy>(out: &mut [R], a: Val<A>, f: impl Fn(A) -> R) {
    match a {
        Val::Run(a) => {
            for (o, &x) in out.iter_mut().zip(a) {
                *o = f(x);
            }
        }
        Val::Splat(x) => out.fill(f(x)),
    }
}

#[inline(always)]
fn map2<A: Copy, B: Copy, R: Copy>(out: &mut [R], a: Val<A>, b: Val<B>, f: impl Fn(A, B) -> R) {
    match (a, b) {
        (Val::Run(a), Val::Run(b)) => {
            for ((o, &x), &y) in out.iter_mut().zip(a).zip(b) {
                *o = f(x, y);
            }
        }
        (Val::Run(a), Val::Splat(y)) => {
            for (o, &x) in out.iter_mut().zip(a) {
                *o = f(x, y);
            }
        }
        (Val::Splat(x), Val::Run(b)) => {
            for (o, &y) in out.iter_mut().zip(b) {
                *o = f(x, y);
            }
        }
        (Val::Splat(x), Val::Splat(y)) => out.fill(f(x, y)),
    }
}

fn select<T: Copy>(out: &mut [T], cond: Val<bool>, t: Val<T>, f: Val<T>) {
    if let (Val::Run(c), Val::Run(t), Val::Run(f)) = (cond, t, f) {
        for (((o, &c), &x), &y) in out.iter_mut().zip(c).zip(t).zip(f) {
            *o = if c { x } else { y };
        }
    } else {
        for (i, o) in out.iter_mut().enumerate() {
            *o = if cond.at(i) { t.at(i) } else { f.at(i) };
        }
    }
}

fn compare<T: Copy + PartialOrd>(op: BinaryOp, out: &mut [bool], a: Val<T>, b: Val<T>) {
    match op {
        BinaryOp::Lt => map2(out, a, b, |x, y| x < y),
        BinaryOp::Le => map2(out, a, b, |x, y| x <= y),
        BinaryOp::Gt => map2(out, a, b, |x, y| x > y),
        BinaryOp::Ge => map2(out, a, b, |x, y| x >= y),
        BinaryOp::Eq => map2(out, a, b, |x, y| x == y),
        _ => unreachable!(),
    }
}

fn arith_f64(op: BinaryOp, out: &mut [f64], a: Val<f64>, b: Val<f64>) {
    match op {
        BinaryOp::Add => map2(out, a, b, |x, y| x + y),
        BinaryOp::Sub => map2(out, a, b, |x, y| x - y),
        BinaryOp::Mul => map2(out, a, b, |x, y| x * y),
        BinaryOp::Div => map2(out, a, b, |x, y| x / y),
        BinaryOp::Rem => map2(out, a, b, f64::rem_euclid),
        BinaryOp::Min => map2(out, a, b, f64::min),
        BinaryOp::Max => map2(out, a, b, f64::max),
        BinaryOp::Atan2 => map2(out, a, b, f64::atan2),
        BinaryOp::Pow => map2(out, a, b, f64::powf),
        _ => unreachable!(),
    }
}

fn arith_i64(op: BinaryOp, out: &mut [i64], a: Val<i64>, b: Val<i64>) {
    match op {
        BinaryOp::Add => map2(out, a, b, i64::wrapping_add),
        BinaryOp::Sub => map2(out, a, b, i64::wrapping_sub),
        BinaryOp::Mul => map2(out, a, b, i64::wrapping_mul),
        BinaryOp::Div => map2(out, a, b, i64::div_euclid),
        BinaryOp::Rem => map2(out, a, b, i64::rem_euclid),
        BinaryOp::Min => map2(out, a, b, |x: i64, y| x.min(y)),
        BinaryOp::Max => map2(out, a, b, |x: i64, y| x.max(y)),
        BinaryOp::Pow => map2(out, a, b, |x: i64, y| x.pow(y as u32)),
        BinaryOp::Atan2 => panic!("atan2 on I64"),
        _ => unreachable!(),
    }
}

fn unary_f64(op: UnaryOp, out: &mut [f64], a: Val<f64>) {
    match op {
        UnaryOp::Neg => map1(out, a, |x| -x),
        UnaryOp::Abs => map1(out, a, f64::abs),
        UnaryOp::Exp => map1(out, a, f64::exp),
        UnaryOp::Log => map1(out, a, f64::ln),
        UnaryOp::Sqrt => map1(out, a, f64::sqrt),
        UnaryOp::Sin => map1(out, a, f64::sin),
        UnaryOp::Cos => map1(out, a, f64::cos),
        UnaryOp::Floor => map1(out, a, f64::floor),
        UnaryOp::Not => unreachable!(),
    }
}

/// Fill `out` with `src` read through `walk` from flat index `b0`: one
/// division per run of the innermost axis, none per element.
fn load<T: Copy>(src: &[T], walk: &Walk, b0: usize, out: &mut [T]) {
    let rank = walk.dims.len();
    let (inner, step) = (walk.dims[rank - 1], walk.strides[rank - 1]);
    let mut pos = b0;
    let mut done = 0;
    while done < out.len() {
        let mut rest = pos / inner;
        let lane = pos % inner;
        let mut base = walk.offset + lane * step;
        for axis in (0..rank - 1).rev() {
            base += (rest % walk.dims[axis]) * walk.strides[axis];
            rest /= walk.dims[axis];
        }
        let run = (inner - lane).min(out.len() - done);
        let dst = &mut out[done..done + run];
        match step {
            0 => dst.fill(src[base]),
            1 => dst.copy_from_slice(&src[base..base + run]),
            _ => {
                for (j, d) in dst.iter_mut().enumerate() {
                    *d = src[base + j * step];
                }
            }
        }
        done += run;
        pos += run;
    }
}

/// `out[q·k + j] = parts[j][q]` over the block starting at flat `b0`.
fn stack<T: Copy>(parts: &[&[T]], b0: usize, out: &mut [T]) {
    let k = parts.len();
    let b1 = b0 + out.len();
    for (j, part) in parts.iter().enumerate() {
        let first = if b0 > j { (b0 - j).div_ceil(k) } else { 0 };
        let end = if b1 > j { (b1 - j).div_ceil(k) } else { 0 };
        for q in first..end {
            out[q * k + j - b0] = part[q];
        }
    }
}

impl Operands<'_> {
    fn val<T: Elem>(&self, src: Src) -> Val<'_, T> {
        match src {
            Src::Slot(s) => {
                Val::Run(&T::of(self.slots[s].as_ref().expect("slot written"))[..self.n])
            }
            Src::Buffer(r) => Val::Run(&T::of(self.frame.data(r))[self.b0..self.b0 + self.n]),
            Src::Splat(r) => Val::Splat(T::of(self.frame.data(r))[0]),
        }
    }

    fn parts<T: Elem>(&self, parts: &[NodeId]) -> Vec<&[T]> {
        parts.iter().map(|&p| T::of(self.frame.data(p))).collect()
    }

    /// Run `inst` on this block, writing `out[range]`.
    fn exec(&self, inst: &Inst, out: &mut Data, range: std::ops::Range<usize>) {
        let src = |k: usize| inst.srcs[k];
        match (&inst.kind, out) {
            (Kind::Iota, Data::I64(o)) => {
                for (i, o) in o[range].iter_mut().enumerate() {
                    *o = (self.b0 + i) as i64;
                }
            }
            (Kind::Unary(op), Data::F64(o)) => unary_f64(*op, &mut o[range], self.val(src(0))),
            (Kind::Unary(_), Data::Bool(o)) => map1(&mut o[range], self.val(src(0)), |x: bool| !x),
            (Kind::Binary(op, dtype), Data::Bool(o)) => {
                let o = &mut o[range];
                let (a, b) = (src(0), src(1));
                match dtype {
                    DType::F64 => compare(*op, o, self.val::<f64>(a), self.val(b)),
                    DType::I64 => compare(*op, o, self.val::<i64>(a), self.val(b)),
                    DType::Bool => {
                        let (a, b) = (self.val::<bool>(a), self.val(b));
                        match op {
                            BinaryOp::And => map2(o, a, b, |x, y| x && y),
                            BinaryOp::Or => map2(o, a, b, |x, y| x || y),
                            _ => panic!("comparison on unsupported dtype pair"),
                        }
                    }
                }
            }
            (Kind::Binary(op, _), Data::F64(o)) => {
                arith_f64(*op, &mut o[range], self.val(src(0)), self.val(src(1)))
            }
            (Kind::Binary(op, _), Data::I64(o)) => {
                arith_i64(*op, &mut o[range], self.val(src(0)), self.val(src(1)))
            }
            (Kind::Select, out) => {
                let (c, t, f) = (self.val(src(0)), src(1), src(2));
                match out {
                    Data::F64(o) => select(&mut o[range], c, self.val(t), self.val(f)),
                    Data::I64(o) => select(&mut o[range], c, self.val(t), self.val(f)),
                    Data::Bool(o) => select(&mut o[range], c, self.val(t), self.val(f)),
                }
            }
            (Kind::Convert(from), out) => {
                let a = src(0);
                match (from, out) {
                    (DType::F64, Data::I64(o)) => {
                        map1(&mut o[range], self.val(a), |x: f64| x as i64)
                    }
                    (DType::I64, Data::F64(o)) => {
                        map1(&mut o[range], self.val(a), |x: i64| x as f64)
                    }
                    (DType::Bool, Data::F64(o)) => {
                        map1(
                            &mut o[range],
                            self.val(a),
                            |x: bool| if x { 1.0 } else { 0.0 },
                        )
                    }
                    (DType::Bool, Data::I64(o)) => {
                        map1(&mut o[range], self.val(a), |x: bool| x as i64)
                    }
                    (d, out) => panic!("unsupported convert {d:?} -> {:?}", out.dtype()),
                }
            }
            (Kind::Load { root, walk }, out) => {
                let src = self.frame.data(*root);
                match out {
                    Data::F64(o) => load(f64::of(src), walk, self.b0, &mut o[range]),
                    Data::I64(o) => load(i64::of(src), walk, self.b0, &mut o[range]),
                    Data::Bool(o) => load(bool::of(src), walk, self.b0, &mut o[range]),
                }
            }
            (Kind::Stack(parts), out) => match out {
                Data::F64(o) => stack(&self.parts::<f64>(parts), self.b0, &mut o[range]),
                Data::I64(o) => stack(&self.parts::<i64>(parts), self.b0, &mut o[range]),
                Data::Bool(o) => stack(&self.parts::<bool>(parts), self.b0, &mut o[range]),
            },
            (kind, out) => panic!("{kind:?} cannot write {:?}", out.dtype()),
        }
    }
}

/// Run a non-elementwise node by its routine.
fn eval_node(graph: &Graph, id: NodeId, frame: &Frame) -> Data {
    let node = graph.node(id);
    let value = |o: NodeId| frame.data(frame.plan.root[o]);
    match &node.op {
        Op::Gather { src, idx } => eval_gather(value(*src), i64::of(value(*idx))),
        Op::ScatterAdd { size, idx, val } => {
            eval_scatter_add(*size, i64::of(value(*idx)), value(*val))
        }
        Op::ReduceSum { a, axis } => eval_reduce_sum(value(*a), &graph.node(*a).shape, *axis),
        op => unreachable!("{op:?} runs in a fused loop"),
    }
}

fn eval_gather(src: &Data, indices: &[i64]) -> Data {
    let pick = |i: i64, len: usize| -> usize {
        assert!(
            i >= 0 && (i as usize) < len,
            "gather index {i} out of bounds for source of {len}"
        );
        i as usize
    };
    match src {
        Data::F64(v) => Data::F64(indices.iter().map(|&i| v[pick(i, v.len())]).collect()),
        Data::I64(v) => Data::I64(indices.iter().map(|&i| v[pick(i, v.len())]).collect()),
        Data::Bool(v) => Data::Bool(indices.iter().map(|&i| v[pick(i, v.len())]).collect()),
    }
}

fn eval_scatter_add(size: usize, indices: &[i64], val: &Data) -> Data {
    match val {
        Data::F64(v) => {
            let mut out = vec![0.0f64; size];
            for (&i, &x) in indices.iter().zip(v) {
                assert!(
                    i >= 0 && (i as usize) < size,
                    "scatter index {i} out of bounds for {size}"
                );
                out[i as usize] += x;
            }
            Data::F64(out)
        }
        Data::I64(v) => {
            let mut out = vec![0i64; size];
            for (&i, &x) in indices.iter().zip(v) {
                assert!(i >= 0 && (i as usize) < size);
                out[i as usize] += x;
            }
            Data::I64(out)
        }
        Data::Bool(_) => panic!("scatter_add on Bool"),
    }
}

fn eval_reduce_sum(a: &Data, in_shape: &Shape, axis: usize) -> Data {
    let outer: usize = in_shape.0[..axis].iter().product();
    let dim = in_shape.0[axis];
    let inner: usize = in_shape.0[axis + 1..].iter().product();

    match a {
        Data::F64(v) => {
            let mut out = vec![0.0f64; outer * inner];
            for o in 0..outer {
                for d in 0..dim {
                    let base = (o * dim + d) * inner;
                    for i in 0..inner {
                        out[o * inner + i] += v[base + i];
                    }
                }
            }
            Data::F64(out)
        }
        Data::I64(v) => {
            let mut out = vec![0i64; outer * inner];
            for o in 0..outer {
                for d in 0..dim {
                    let base = (o * dim + d) * inner;
                    for i in 0..inner {
                        out[o * inner + i] += v[base + i];
                    }
                }
            }
            Data::I64(out)
        }
        Data::Bool(_) => panic!("reduce_sum on Bool"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile::compile;
    use crate::trace::TraceContext;
    use accel_sim::NodeCalib;

    fn ctx() -> accel::Context {
        accel::Context::new(NodeCalib::default())
    }

    fn run_one(build: impl Fn(&TraceContext) -> crate::trace::Tracer, args: &[Array]) -> Array {
        let tc = TraceContext::new();
        let out = build(&tc);
        let g = tc.finish(&[&out]);
        let p = compile("test", &g);
        let views: Vec<ArrayView> = args.iter().map(Array::view).collect();
        let mut c = ctx();
        run(&mut c, Backend::Device, &p, &views).remove(0)
    }

    #[test]
    fn arithmetic_and_broadcast() {
        let out = run_one(
            |tc| {
                let m = tc.param(vec![2, 3], DType::F64);
                let v = tc.param(vec![3], DType::F64);
                (&m + &v).mul_s(2.0)
            },
            &[
                Array::from_f64_shaped(vec![2, 3], vec![1., 2., 3., 4., 5., 6.]),
                Array::from_f64(vec![10., 20., 30.]),
            ],
        );
        assert_eq!(out.as_f64(), &[22., 44., 66., 28., 50., 72.]);
    }

    #[test]
    fn select_and_compare() {
        let out = run_one(
            |tc| {
                let x = tc.param(vec![4], DType::F64);
                x.gt(&tc.constant(0.0)).select(&x, &x.neg())
            },
            &[Array::from_f64(vec![-1., 2., -3., 4.])],
        );
        assert_eq!(out.as_f64(), &[1., 2., 3., 4.]);
    }

    #[test]
    fn gather_scatter_roundtrip() {
        // scatter then gather reproduces a permuted vector.
        let out = run_one(
            |tc| {
                let vals = tc.param(vec![4], DType::F64);
                let idx = tc.param(vec![4], DType::I64);
                let scattered = vals.scatter_add(&idx, 4);
                scattered.gather(&idx)
            },
            &[
                Array::from_f64(vec![10., 20., 30., 40.]),
                Array::from_i64(vec![3, 1, 0, 2]),
            ],
        );
        assert_eq!(out.as_f64(), &[10., 20., 30., 40.]);
    }

    #[test]
    fn scatter_add_accumulates_duplicates() {
        let out = run_one(
            |tc| {
                let vals = tc.param(vec![4], DType::F64);
                let idx = tc.param(vec![4], DType::I64);
                vals.scatter_add(&idx, 3)
            },
            &[
                Array::from_f64(vec![1., 2., 3., 4.]),
                Array::from_i64(vec![0, 0, 2, 2]),
            ],
        );
        assert_eq!(out.as_f64(), &[3., 0., 7.]);
    }

    #[test]
    fn reduce_sum_axes() {
        let m = Array::from_f64_shaped(vec![2, 3], vec![1., 2., 3., 4., 5., 6.]);
        let rows = run_one(
            |tc| tc.param(vec![2, 3], DType::F64).reduce_sum(1),
            std::slice::from_ref(&m),
        );
        assert_eq!(rows.as_f64(), &[6., 15.]);
        let cols = run_one(|tc| tc.param(vec![2, 3], DType::F64).reduce_sum(0), &[m]);
        assert_eq!(cols.as_f64(), &[5., 7., 9.]);
    }

    #[test]
    fn slice_and_index_axis() {
        let m = Array::from_f64_shaped(vec![2, 4], (0..8).map(|i| i as f64).collect());
        let col = run_one(|tc| tc.param(vec![2, 4], DType::F64).index_axis(1, 2), &[m]);
        assert_eq!(col.as_f64(), &[2., 6.]);
    }

    #[test]
    fn convert_and_floor() {
        let out = run_one(
            |tc| {
                let x = tc.param(vec![3], DType::F64);
                x.floor().convert(DType::I64)
            },
            &[Array::from_f64(vec![1.9, -0.5, 3.0])],
        );
        assert_eq!(out.as_i64(), &[1, -1, 3]);
    }

    #[test]
    fn i64_euclid_rem() {
        let out = run_one(
            |tc| {
                let x = tc.param(vec![3], DType::I64);
                x.rem(&tc.constant_i64(4))
            },
            &[Array::from_i64(vec![-1, 9, -8])],
        );
        assert_eq!(out.as_i64(), &[3, 1, 0]);
    }

    #[test]
    fn device_backend_charges_stages() {
        let tc = TraceContext::new();
        let x = tc.param(vec![1000], DType::F64);
        let y = x.sin().mul_s(2.0);
        let g = tc.finish(&[&y]);
        let p = compile("charged", &g);
        let mut c = ctx();
        run(
            &mut c,
            Backend::Device,
            &p,
            &[Array::zeros(vec![1000]).view()],
        );
        assert!(c.stats().keys().any(|k| k.starts_with("charged/fused")));
        assert!(c.stats().contains_key("charged/dispatch"));
        assert_eq!(c.trace().kernel_count(), p.stages.len());
    }

    #[test]
    fn cpu_backend_is_much_slower_than_device() {
        let tc = TraceContext::new();
        let x = tc.param(vec![1_000_000], DType::F64);
        let y = x.sin().cos().sqrt().mul_s(2.0);
        let g = tc.finish(&[&y]);
        let p = compile("slow", &g);

        let mut dev = ctx();
        let x = Array::zeros(vec![1_000_000]);
        run(&mut dev, Backend::Device, &p, &[x.view()]);
        let mut cpu = ctx();
        run(&mut cpu, Backend::Cpu, &p, &[x.view()]);
        assert!(
            cpu.total_seconds() > 5.0 * dev.total_seconds(),
            "cpu {} dev {}",
            cpu.total_seconds(),
            dev.total_seconds()
        );
        // The CPU backend launches nothing on the device.
        assert_eq!(cpu.trace().kernel_count(), 0);
    }

    #[test]
    #[should_panic(expected = "does not match compiled signature")]
    fn wrong_shape_is_rejected() {
        let tc = TraceContext::new();
        let x = tc.param(vec![4], DType::F64);
        let y = x.mul_s(1.0);
        let g = tc.finish(&[&y]);
        let p = compile("sig", &g);
        let mut c = ctx();
        run(&mut c, Backend::Device, &p, &[Array::zeros(vec![5]).view()]);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn gather_bounds_checked() {
        run_one(
            |tc| {
                let t = tc.param(vec![3], DType::F64);
                let i = tc.param(vec![1], DType::I64);
                t.gather(&i)
            },
            &[Array::from_f64(vec![1., 2., 3.]), Array::from_i64(vec![7])],
        );
    }
}
