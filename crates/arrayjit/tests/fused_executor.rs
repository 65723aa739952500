//! The fused block executor against a reference, bit for bit.
//!
//! Random programs are traced over `[n, m]` values mixed with `[n, 1]`,
//! `[m]` and scalar broadcast operands, index_axis/stack_last, select,
//! convert, floor, f64 and i64 Euclidean rem/div, bool and/or, reductions,
//! reshapes and explicit broadcasts. Each is compiled and run with
//! `exec::run`, and every output is compared with `to_bits` equality
//! against [`reference`], an element-by-element interpreter of the IR
//! semantics that lives only in this test.

use accel_sim::{Context, NodeCalib};
use arrayjit::compile::compile;
use arrayjit::ir::{BinaryOp, Graph, NodeId, Op, UnaryOp};
use arrayjit::shape::broadcast_index;
use arrayjit::{exec, Array, ArrayView, Backend, DType, Data, Shape, TraceContext, Tracer};
use proptest::prelude::*;

/// SplitMix64, so one `u64` seed fixes a whole program and its inputs.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e3779b97f4a7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn pick<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        &items[self.below(items.len())]
    }

    fn f64(&mut self) -> f64 {
        // Quarter-integers in [-4, 4] give exact ties for floor/rem/eq.
        (self.below(33) as f64 - 16.0) / 4.0
    }
}

// ---- the reference interpreter ------------------------------------------

fn unary(op: UnaryOp, x: f64) -> f64 {
    match op {
        UnaryOp::Neg => -x,
        UnaryOp::Abs => x.abs(),
        UnaryOp::Exp => x.exp(),
        UnaryOp::Log => x.ln(),
        UnaryOp::Sqrt => x.sqrt(),
        UnaryOp::Sin => x.sin(),
        UnaryOp::Cos => x.cos(),
        UnaryOp::Floor => x.floor(),
        UnaryOp::Not => unreachable!(),
    }
}

fn arith_f64(op: BinaryOp, x: f64, y: f64) -> f64 {
    match op {
        BinaryOp::Add => x + y,
        BinaryOp::Sub => x - y,
        BinaryOp::Mul => x * y,
        BinaryOp::Div => x / y,
        BinaryOp::Rem => x.rem_euclid(y),
        BinaryOp::Min => x.min(y),
        BinaryOp::Max => x.max(y),
        BinaryOp::Atan2 => x.atan2(y),
        BinaryOp::Pow => x.powf(y),
        op => unreachable!("{op:?}"),
    }
}

fn arith_i64(op: BinaryOp, x: i64, y: i64) -> i64 {
    match op {
        BinaryOp::Add => x.wrapping_add(y),
        BinaryOp::Sub => x.wrapping_sub(y),
        BinaryOp::Mul => x.wrapping_mul(y),
        BinaryOp::Div => x.div_euclid(y),
        BinaryOp::Rem => x.rem_euclid(y),
        BinaryOp::Min => x.min(y),
        BinaryOp::Max => x.max(y),
        op => unreachable!("{op:?}"),
    }
}

fn compare<T: PartialOrd>(op: BinaryOp, x: T, y: T) -> bool {
    match op {
        BinaryOp::Lt => x < y,
        BinaryOp::Le => x <= y,
        BinaryOp::Gt => x > y,
        BinaryOp::Ge => x >= y,
        BinaryOp::Eq => x == y,
        op => unreachable!("{op:?}"),
    }
}

/// `out[i] = f(i)` in the dtype of `like`.
fn build(like: &Data, n: usize, mut f: impl FnMut(usize, &mut Data)) -> Data {
    let mut out = match like {
        Data::F64(_) => Data::F64(Vec::with_capacity(n)),
        Data::I64(_) => Data::I64(Vec::with_capacity(n)),
        Data::Bool(_) => Data::Bool(Vec::with_capacity(n)),
    };
    for i in 0..n {
        f(i, &mut out);
    }
    out
}

/// Append `src[j]` to `out` (same dtype).
fn push(out: &mut Data, src: &Data, j: usize) {
    match (out, src) {
        (Data::F64(o), Data::F64(s)) => o.push(s[j]),
        (Data::I64(o), Data::I64(s)) => o.push(s[j]),
        (Data::Bool(o), Data::Bool(s)) => o.push(s[j]),
        _ => panic!("dtype mismatch"),
    }
}

/// Evaluate every node of `graph` over whole arrays, one output element
/// at a time, with broadcast operands indexed by `broadcast_index`.
fn reference(graph: &Graph, args: &[Array]) -> Vec<Array> {
    let mut vals: Vec<Data> = Vec::with_capacity(graph.nodes.len());
    for node in &graph.nodes {
        let n = node.shape.elements();
        let at = |id: NodeId, i: usize| broadcast_index(i, &node.shape, &graph.node(id).shape);
        let v = match &node.op {
            Op::Param { index } => args[*index].data().clone(),
            Op::ConstF64(x) => Data::F64(vec![*x]),
            Op::ConstI64(x) => Data::I64(vec![*x]),
            Op::Iota { len } => Data::I64((0..*len as i64).collect()),
            Op::Unary { op, a } => match &vals[*a] {
                Data::F64(x) => Data::F64((0..n).map(|i| unary(*op, x[i])).collect()),
                Data::Bool(x) => Data::Bool((0..n).map(|i| !x[i]).collect()),
                Data::I64(_) => panic!("unary on I64"),
            },
            Op::Binary { op, a, b } => match (&vals[*a], &vals[*b]) {
                (Data::F64(x), Data::F64(y)) if op.is_comparison() => Data::Bool(
                    (0..n)
                        .map(|i| compare(*op, x[at(*a, i)], y[at(*b, i)]))
                        .collect(),
                ),
                (Data::I64(x), Data::I64(y)) if op.is_comparison() => Data::Bool(
                    (0..n)
                        .map(|i| compare(*op, x[at(*a, i)], y[at(*b, i)]))
                        .collect(),
                ),
                (Data::F64(x), Data::F64(y)) => Data::F64(
                    (0..n)
                        .map(|i| arith_f64(*op, x[at(*a, i)], y[at(*b, i)]))
                        .collect(),
                ),
                (Data::I64(x), Data::I64(y)) => Data::I64(
                    (0..n)
                        .map(|i| arith_i64(*op, x[at(*a, i)], y[at(*b, i)]))
                        .collect(),
                ),
                (Data::Bool(x), Data::Bool(y)) => Data::Bool(
                    (0..n)
                        .map(|i| match op {
                            BinaryOp::And => x[at(*a, i)] && y[at(*b, i)],
                            BinaryOp::Or => x[at(*a, i)] || y[at(*b, i)],
                            op => unreachable!("{op:?}"),
                        })
                        .collect(),
                ),
                _ => panic!("binary dtype mismatch"),
            },
            Op::Select {
                cond,
                on_true,
                on_false,
            } => {
                let Data::Bool(c) = &vals[*cond] else {
                    panic!("select condition")
                };
                build(&vals[*on_true], n, |i, out| {
                    if c[at(*cond, i)] {
                        push(out, &vals[*on_true], at(*on_true, i));
                    } else {
                        push(out, &vals[*on_false], at(*on_false, i));
                    }
                })
            }
            Op::Convert { a, to } => match (&vals[*a], to) {
                (Data::F64(x), DType::I64) => Data::I64(x.iter().map(|&v| v as i64).collect()),
                (Data::I64(x), DType::F64) => Data::F64(x.iter().map(|&v| v as f64).collect()),
                (Data::Bool(x), DType::F64) => {
                    Data::F64(x.iter().map(|&v| if v { 1.0 } else { 0.0 }).collect())
                }
                (Data::Bool(x), DType::I64) => Data::I64(x.iter().map(|&v| v as i64).collect()),
                (d, t) => panic!("convert {:?} -> {t:?}", d.dtype()),
            },
            Op::Reshape { a } => vals[*a].clone(),
            Op::BroadcastTo { a } => build(&vals[*a], n, |i, out| push(out, &vals[*a], at(*a, i))),
            Op::SliceAxis {
                a,
                axis,
                start,
                len,
            } => {
                let src = &graph.node(*a).shape;
                let inner: usize = src.0[axis + 1..].iter().product();
                let dim = src.0[*axis];
                build(&vals[*a], n, |i, out| {
                    let (o, d, r) = (i / (len * inner), (i / inner) % len, i % inner);
                    push(out, &vals[*a], (o * dim + start + d) * inner + r);
                })
            }
            Op::StackLast { parts } => {
                let k = parts.len();
                build(&vals[parts[0]], n, |i, out| {
                    push(out, &vals[parts[i % k]], i / k)
                })
            }
            Op::ReduceSum { a, axis } => {
                let src = &graph.node(*a).shape;
                let outer: usize = src.0[..*axis].iter().product();
                let dim = src.0[*axis];
                let inner: usize = src.0[axis + 1..].iter().product();
                let Data::F64(x) = &vals[*a] else {
                    panic!("reduce_sum on non-F64")
                };
                Data::F64(
                    (0..outer * inner)
                        .map(|i| {
                            let (o, r) = (i / inner, i % inner);
                            (0..dim).fold(0.0, |acc, d| acc + x[(o * dim + d) * inner + r])
                        })
                        .collect(),
                )
            }
            Op::Gather { src, idx } => {
                let Data::I64(ix) = &vals[*idx] else {
                    panic!("gather indices")
                };
                build(&vals[*src], n, |i, out| {
                    push(out, &vals[*src], ix[i] as usize)
                })
            }
            Op::ScatterAdd { size, idx, val } => {
                let (Data::I64(ix), Data::F64(x)) = (&vals[*idx], &vals[*val]) else {
                    panic!("scatter operands")
                };
                let mut out = vec![0.0; *size];
                for (&i, &v) in ix.iter().zip(x) {
                    out[i as usize] += v;
                }
                Data::F64(out)
            }
        };
        vals.push(v);
    }
    graph
        .outputs
        .iter()
        .map(|&o| Array::new(graph.node(o).shape.clone(), vals[o].clone()))
        .collect()
}

// ---- random programs ----------------------------------------------------

/// Grows one random program: pools of `[n, m]` values per dtype plus
/// smaller f64 operands that broadcast against them.
struct Gen {
    rng: Rng,
    tc: TraceContext,
    n: usize,
    m: usize,
    f: Vec<Tracer>,
    i: Vec<Tracer>,
    b: Vec<Tracer>,
    /// `[n, 1]`, `[m]`, `[1, m]` and scalar f64 values.
    side: Vec<Tracer>,
    outputs: Vec<Tracer>,
}

impl Gen {
    fn full_f(&mut self) -> Tracer {
        self.rng.pick(&self.f).clone()
    }

    /// A full value or, one time in three, a broadcast operand.
    fn any_f(&mut self) -> Tracer {
        if self.rng.below(3) == 0 {
            self.rng.pick(&self.side).clone()
        } else {
            self.full_f()
        }
    }

    fn full_i(&mut self) -> Tracer {
        self.rng.pick(&self.i).clone()
    }

    fn full_b(&mut self) -> Tracer {
        self.rng.pick(&self.b).clone()
    }

    /// A nonzero i64 divisor in [-7, -1] ∪ [1, 7].
    fn divisor(&mut self) -> Tracer {
        let d = self.full_i().rem_s_i(7).add_s_i(1);
        if self.rng.below(2) == 0 {
            d.mul_s_i(-1)
        } else {
            d
        }
    }

    fn step(&mut self, t: &Tracer) {
        let (n, m) = (self.n, self.m);
        match self.rng.below(16) {
            0 | 1 => {
                let op = *self.rng.pick(&[
                    BinaryOp::Add,
                    BinaryOp::Sub,
                    BinaryOp::Mul,
                    BinaryOp::Div,
                    BinaryOp::Rem,
                    BinaryOp::Min,
                    BinaryOp::Max,
                    BinaryOp::Atan2,
                    BinaryOp::Pow,
                ]);
                let (a, b) = (self.full_f(), self.any_f());
                let (a, b) = if self.rng.below(2) == 0 {
                    (a, b)
                } else {
                    (b, a)
                };
                let v = match op {
                    BinaryOp::Add => &a + &b,
                    BinaryOp::Sub => &a - &b,
                    BinaryOp::Mul => &a * &b,
                    BinaryOp::Div => &a / &b,
                    BinaryOp::Rem => a.rem(&b),
                    BinaryOp::Min => a.min(&b),
                    BinaryOp::Max => a.max(&b),
                    BinaryOp::Atan2 => a.atan2(&b),
                    _ => a.pow(&b),
                };
                self.f.push(v);
            }
            2 => {
                let a = self.full_f();
                let v = match self.rng.below(8) {
                    0 => a.neg(),
                    1 => a.abs(),
                    2 => a.exp(),
                    3 => a.log(),
                    4 => a.sqrt(),
                    5 => a.sin(),
                    6 => a.cos(),
                    _ => a.floor(),
                };
                self.f.push(v);
            }
            3 => {
                let (a, b) = (self.full_f(), self.any_f());
                let v = match self.rng.below(5) {
                    0 => a.lt(&b),
                    1 => a.le(&b),
                    2 => a.gt(&b),
                    3 => a.ge(&b),
                    _ => a.eq(&b),
                };
                self.b.push(v);
            }
            4 => {
                // Condition full or a `[1, m]` row mask; branches broadcast.
                let cond = if self.rng.below(3) == 0 {
                    let row = self.side[1].clone();
                    row.gt_s(0.0).reshape(vec![1, m])
                } else {
                    self.full_b()
                };
                let (t_, f_) = (self.full_f(), self.any_f());
                self.f.push(cond.select(&t_, &f_));
            }
            5 => {
                let v = match self.rng.below(4) {
                    0 => self.full_f().floor().convert(DType::I64),
                    1 => {
                        let c = self.full_b().convert(DType::I64);
                        self.i.push(c);
                        self.full_i().convert(DType::F64)
                    }
                    2 => self.full_b().convert(DType::F64),
                    _ => self.full_i().convert(DType::F64),
                };
                match v.dtype() {
                    DType::I64 => self.i.push(v),
                    _ => self.f.push(v),
                }
            }
            6 | 7 => {
                let a = self.full_i();
                let v = match self.rng.below(7) {
                    0 => &a + &self.full_i(),
                    1 => &a - &self.tc.constant_i64(3),
                    2 => &a * &self.full_i(),
                    3 => a.min(&self.full_i()),
                    4 => a.max(&self.tc.iota(m)),
                    5 => a.rem(&self.divisor()),
                    _ => {
                        let d = self.divisor();
                        &a / &d
                    }
                };
                self.i.push(v);
            }
            8 => {
                let (a, b) = (self.full_b(), self.full_b());
                let v = if self.rng.below(2) == 0 {
                    a.and(&b)
                } else {
                    a.or(&b)
                };
                let v = if self.rng.below(3) == 0 { v.not() } else { v };
                self.b.push(v);
            }
            9 => {
                let k = t.shape().dim(2);
                let c = self.rng.below(k);
                self.f.push(t.index_axis(2, c));
            }
            10 => {
                // Stack inside the stage, then read a part back out.
                let k = 2 + self.rng.below(3);
                let parts: Vec<Tracer> = (0..k).map(|_| self.full_f()).collect();
                let refs: Vec<&Tracer> = parts[1..].iter().collect();
                let stacked = parts[0].stack_last(&refs);
                if self.rng.below(3) == 0 {
                    self.outputs.push(stacked.clone());
                }
                let c = self.rng.below(k);
                self.f.push(stacked.index_axis(2, c).add_s(0.5));
            }
            11 => {
                let a = self.full_f();
                self.f
                    .push(a.reshape(vec![n * m]).reshape(vec![n, m]).mul_s(3.0));
            }
            12 => {
                let s = self.rng.pick(&self.side).clone();
                self.f.push(s.broadcast_to(vec![n, m]));
            }
            13 => {
                // Reductions (one a library dot) feed a column operand.
                let a = self.full_f();
                let r = if self.rng.below(2) == 0 {
                    (&a * &self.full_f()).reduce_sum(1)
                } else {
                    a.reduce_sum(1)
                };
                self.side.push(r.reshape(vec![n, 1]));
            }
            14 => {
                // A side computation in its own, smaller loop.
                let s = self.rng.pick(&self.side).clone();
                let v = if self.rng.below(2) == 0 {
                    s.cos().mul_s(2.0)
                } else {
                    (&s + &s).floor()
                };
                self.side.push(v);
            }
            _ => {
                let iota = self.tc.iota(n * m).reshape(vec![n, m]);
                self.i.push(iota.rem_s_i(5).add_s_i(-2));
            }
        }
    }
}

/// Trace a random program from `seed`; returns its graph and inputs.
fn random_program(seed: u64) -> (Graph, Vec<Array>) {
    let mut rng = Rng(seed);
    let n = 1 + rng.below(6);
    let m = *rng.pick(&[1usize, 3, 7, 64, 150, 300]);
    let k = 2 + rng.below(3);
    let tc = TraceContext::new();
    let mut args: Vec<Array> = Vec::new();
    let mut param = |rng: &mut Rng, shape: Vec<usize>, dtype: DType| {
        let len: usize = shape.iter().product();
        let data = match dtype {
            DType::F64 => Data::F64((0..len).map(|_| rng.f64()).collect()),
            DType::I64 => Data::I64((0..len).map(|_| rng.below(101) as i64 - 50).collect()),
            DType::Bool => Data::Bool((0..len).map(|_| rng.below(2) == 0).collect()),
        };
        args.push(Array::new(shape.clone(), data));
        tc.param(shape, dtype)
    };
    let x0 = param(&mut rng, vec![n, m], DType::F64);
    let x1 = param(&mut rng, vec![n, m], DType::F64);
    let col = param(&mut rng, vec![n, 1], DType::F64);
    let row = param(&mut rng, vec![m], DType::F64);
    let s = param(&mut rng, vec![], DType::F64);
    let i0 = param(&mut rng, vec![n, m], DType::I64);
    let b0 = param(&mut rng, vec![n, m], DType::Bool);
    let t = param(&mut rng, vec![n, m, k], DType::F64);

    let constant = tc.constant(rng.f64());
    let mut g = Gen {
        rng,
        tc: tc.clone(),
        n,
        m,
        f: vec![x0.clone(), x1],
        i: vec![i0],
        b: vec![b0],
        side: vec![col, row.clone(), row.reshape(vec![1, m]), s, constant],
        outputs: Vec::new(),
    };
    let steps = 8 + g.rng.below(24);
    for _ in 0..steps {
        g.step(&t);
    }

    // A value that is both an output and read again in its own stage.
    let v = g.f[g.f.len() - 1].clone();
    let w = v.sin() + &v;
    let mut outputs = std::mem::take(&mut g.outputs);
    outputs.push(w);
    outputs.push(v.clone());
    outputs.push(g.full_i());
    outputs.push(g.full_b());
    outputs.push(g.rng.pick(&g.side).clone());
    if g.rng.below(2) == 0 {
        outputs.push(v); // duplicated output
    }
    if g.rng.below(4) == 0 {
        outputs.push(x0); // an argument passed through
    }
    let refs: Vec<&Tracer> = outputs.iter().collect();
    (tc.finish(&refs), args)
}

fn same_bits(a: &Array, b: &Array) -> bool {
    a.shape() == b.shape()
        && match (a.data(), b.data()) {
            (Data::F64(x), Data::F64(y)) => {
                x.iter().zip(y).all(|(p, q)| p.to_bits() == q.to_bits())
            }
            (x, y) => x == y,
        }
}

fn check(seed: u64) -> Result<(), String> {
    let (graph, args) = random_program(seed);
    let expected = reference(&graph, &args);
    let program = compile("random", &graph);
    let views: Vec<ArrayView> = args.iter().map(Array::view).collect();
    for backend in [Backend::Device, Backend::Cpu] {
        let mut ctx = Context::new(NodeCalib::default());
        let got = exec::run(&mut ctx, backend, &program, &views);
        if got.len() != expected.len() {
            return Err(format!(
                "seed {seed}: {} outputs, expected {}",
                got.len(),
                expected.len()
            ));
        }
        for (k, (g, e)) in got.iter().zip(&expected).enumerate() {
            if !same_bits(g, e) {
                return Err(format!("seed {seed}: output {k} differs ({backend:?})"));
            }
        }
    }
    Ok(())
}

proptest! {
    /// Every output of a random program is bit-identical to the
    /// element-by-element reference.
    #[test]
    fn fused_execution_matches_reference_bit_for_bit(seed: u64) {
        if let Err(e) = check(seed) {
            prop_assert!(false, "{}", e);
        }
    }
}

/// Block boundaries: loops longer than one block, with a broadcast row
/// that straddles them.
#[test]
fn blocks_straddle_broadcast_rows() {
    let tc = TraceContext::new();
    let x = tc.param(vec![7, 300], DType::F64);
    let row = tc.param(vec![300], DType::F64);
    let col = tc.param(vec![7, 1], DType::F64);
    let y = (&x * &row + &col).sin();
    let g = tc.finish(&[&y]);
    let args = [
        Array::from_f64_shaped(vec![7, 300], (0..2100).map(|i| i as f64 * 0.01).collect()),
        Array::from_f64((0..300).map(|i| i as f64 * 0.5).collect()),
        Array::from_f64_shaped(vec![7, 1], (0..7).map(|i| i as f64).collect()),
    ];
    let expected = reference(&g, &args);
    let views: Vec<ArrayView> = args.iter().map(Array::view).collect();
    let got = exec::run(
        &mut Context::new(NodeCalib::default()),
        Backend::Device,
        &compile("blocks", &g),
        &views,
    );
    assert!(same_bits(&got[0], &expected[0]));
    assert_eq!(got[0].shape(), &Shape(vec![7, 300]));
}
