//! The host execution plan: how a compiled program runs on the host.
//!
//! [`crate::compile`] builds one [`Plan`] per program, once, next to the
//! stage partition. The plan makes the stage the unit of host execution:
//!
//! * **Aliases.** Reshapes, one-part stacks, and broadcasts, slices and
//!   conversions that change nothing share their operand's storage. They
//!   are never executed; every node names the *root* whose storage it
//!   reads.
//! * **Loops.** The elementwise nodes of a stage run as block loops over
//!   an iteration space (an element count). Nodes with the stage's
//!   dominant count share one loop; smaller side values (a `[n_samp]`
//!   mask, a `[n_det, 1]` weight) get their own loops, ordered by
//!   dependency. A loop walks its space in blocks of [`BLOCK`] elements,
//!   running every node on one block before moving to the next, so
//!   intermediates live in block-sized scratch slots.
//! * **Operand reads.** Inside a loop an operand is a scratch slot, a
//!   contiguous slice of a full-size buffer, a splatted scalar, or a
//!   strided/broadcast walk loaded into a slot once per block (walked
//!   run by run, with no per-element division).
//! * **Materialised values.** Only program outputs and values read by
//!   another loop, another stage or a non-elementwise node get full-size
//!   buffers.
//! * **Liveness.** Every buffer is dropped after the last step that reads
//!   it; arguments are borrowed, never copied.
//!
//! Each element still sees the same f64/i64 operations in the same order
//! as a node-by-node evaluation, so results are bit-identical to it.

use std::collections::HashMap;

use crate::array::{DType, Data};
use crate::compile::Stage;
use crate::ir::{BinaryOp, Graph, NodeId, Op, UnaryOp};
use crate::shape::Shape;

/// Elements per block of a fused loop.
pub const BLOCK: usize = 512;

/// A compiled program's host execution plan.
#[derive(Debug, Clone)]
pub struct Plan {
    /// The node whose storage each node reads (itself unless an alias).
    pub(crate) root: Vec<NodeId>,
    /// Where each root's value lives during a call.
    pub(crate) homes: Vec<Home>,
    /// Steps in execution order.
    pub(crate) steps: Vec<Step>,
    /// Buffers dropped after each step: the values it was last to read.
    pub(crate) frees: Vec<Vec<NodeId>>,
}

/// Where a value lives during a call.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum Home {
    /// The `index`-th argument, borrowed.
    Arg(usize),
    /// A constant, held by the plan.
    Const(Data),
    /// A full-size buffer allocated by the call.
    Buffer,
    /// Block scratch inside its loop only. Alias nodes keep this
    /// placeholder: only roots' homes are read.
    Block,
}

/// One unit of host execution.
#[derive(Debug, Clone)]
pub(crate) enum Step {
    /// A fused elementwise loop.
    Loop(Loop),
    /// A non-elementwise node (gather, scatter-add, reduction), run by its
    /// own routine into a fresh buffer.
    Node(NodeId),
}

/// A block loop over `len` elements.
#[derive(Debug, Clone)]
pub(crate) struct Loop {
    pub(crate) len: usize,
    /// Materialised nodes this loop writes, allocated full-size.
    pub(crate) buffers: Vec<NodeId>,
    /// Element type of each block scratch slot.
    pub(crate) slots: Vec<DType>,
    /// Run in order on every block.
    pub(crate) insts: Vec<Inst>,
}

/// Where an instruction writes its block.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum Dst {
    Slot(usize),
    Buffer(NodeId),
}

/// How an instruction reads an operand's block.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum Src {
    /// A scratch slot written earlier in the same block.
    Slot(usize),
    /// The same index range of a full-size value.
    Buffer(NodeId),
    /// Element 0 of a one-element value, for every lane.
    Splat(NodeId),
}

/// One elementwise instruction of a loop: `dst = kind(srcs…)` on a block.
#[derive(Debug, Clone)]
pub(crate) struct Inst {
    pub(crate) kind: Kind,
    /// Operands in the op's order (`a, b` or `cond, on_true, on_false`).
    pub(crate) srcs: Vec<Src>,
    pub(crate) dst: Dst,
}

/// What an instruction computes.
#[derive(Debug, Clone)]
pub(crate) enum Kind {
    Iota,
    Unary(UnaryOp),
    /// The operands' element type decides comparison and arithmetic.
    Binary(BinaryOp, DType),
    Select,
    /// From the operand's element type.
    Convert(DType),
    /// Read `root` through a strided or broadcast walk.
    Load {
        root: NodeId,
        walk: Walk,
    },
    /// Interleave full-size parts along a new trailing axis.
    Stack(Vec<NodeId>),
}

impl Inst {
    /// Roots of full-size values this instruction reads.
    fn buffer_reads(&self) -> Vec<NodeId> {
        let mut roots: Vec<NodeId> = self
            .srcs
            .iter()
            .filter_map(|s| match *s {
                Src::Buffer(r) | Src::Splat(r) => Some(r),
                Src::Slot(_) => None,
            })
            .collect();
        match &self.kind {
            Kind::Load { root, .. } => roots.push(*root),
            Kind::Stack(parts) => roots.extend(parts),
            _ => {}
        }
        roots
    }

    /// Slots this instruction reads.
    fn slot_reads(&self) -> impl Iterator<Item = usize> + '_ {
        self.srcs.iter().filter_map(|s| match *s {
            Src::Slot(v) => Some(v),
            _ => None,
        })
    }
}

/// A strided read of a flat buffer over an output index space:
/// output coordinates `c` read element `offset + Σ c[k]·strides[k]`.
/// Broadcast axes have stride 0. Axes of extent 1 are dropped and axes
/// that continue each other are merged, so a row or column broadcast
/// walks two axes and a trailing-axis slice one.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Walk {
    pub(crate) offset: usize,
    pub(crate) dims: Vec<usize>,
    pub(crate) strides: Vec<usize>,
}

impl Walk {
    fn new(offset: usize, dims: &[usize], strides: &[usize]) -> Self {
        let mut walk = Walk {
            offset,
            dims: Vec::new(),
            strides: Vec::new(),
        };
        for (&d, &s) in dims.iter().zip(strides) {
            if d == 1 {
                continue;
            }
            match (walk.dims.last_mut(), walk.strides.last_mut()) {
                (Some(pd), Some(ps)) if *ps == s * d => {
                    *pd *= d;
                    *ps = s;
                }
                _ => {
                    walk.dims.push(d);
                    walk.strides.push(s);
                }
            }
        }
        if walk.dims.is_empty() {
            walk.dims.push(1);
            walk.strides.push(0);
        }
        walk
    }

    /// NumPy broadcasting of `src` to `out`.
    fn broadcast(src: &Shape, out: &Shape) -> Self {
        let pad = out.rank() - src.rank();
        let mut strides = vec![0; out.rank()];
        let mut acc = 1;
        for axis in (pad..out.rank()).rev() {
            let d = src.dim(axis - pad);
            if d != 1 {
                strides[axis] = acc;
            }
            acc *= d;
        }
        Walk::new(0, &out.0, &strides)
    }

    /// The `[start, start + len)` slice of `src` along `axis`.
    fn slice(src: &Shape, axis: usize, start: usize, out: &Shape) -> Self {
        let strides = src.strides();
        Walk::new(start * strides[axis], &out.0, &strides)
    }
}

impl Plan {
    /// Plan the host execution of `graph`, partitioned into `stages`.
    pub(crate) fn new(graph: &Graph, stages: &[Stage]) -> Self {
        let n = graph.nodes.len();
        let elements = |id: NodeId| graph.node(id).shape.elements();

        // Aliases share their operand's storage.
        let mut root: Vec<NodeId> = Vec::with_capacity(n);
        for (id, node) in graph.nodes.iter().enumerate() {
            let alias = match &node.op {
                Op::Reshape { a } => Some(*a),
                Op::StackLast { parts } if parts.len() == 1 => Some(parts[0]),
                Op::BroadcastTo { a } | Op::SliceAxis { a, .. } if elements(*a) == elements(id) => {
                    Some(*a)
                }
                Op::Convert { a, to } if graph.node(*a).dtype == *to => Some(*a),
                _ => None,
            };
            root.push(alias.map_or(id, |a| root[a]));
        }

        let mut homes: Vec<Home> = graph
            .nodes
            .iter()
            .map(|node| match node.op {
                Op::Param { index } => Home::Arg(index),
                Op::ConstF64(v) => Home::Const(Data::F64(vec![v])),
                Op::ConstI64(v) => Home::Const(Data::I64(vec![v])),
                ref op if op.is_fusible() => Home::Block,
                _ => Home::Buffer,
            })
            .collect();
        let in_loop = |id: NodeId, homes: &[Home]| root[id] == id && homes[id] == Home::Block;

        // Split each stage's elementwise nodes into loops, one per element
        // count, ordered so that every loop runs after those it reads.
        let mut groups: Vec<Vec<NodeId>> = Vec::new();
        let mut is_loop: Vec<bool> = Vec::new();
        let mut loop_of: Vec<Option<usize>> = vec![None; n];
        for stage in stages {
            let mut order: Vec<Vec<NodeId>> = Vec::new();
            let mut pos_of: HashMap<NodeId, usize> = HashMap::new();
            for &id in stage.nodes.iter().filter(|&&id| in_loop(id, &homes)) {
                let len = elements(id);
                let lo = graph
                    .node(id)
                    .op
                    .operands()
                    .iter()
                    .filter_map(|&o| pos_of.get(&root[o]).copied())
                    .max();
                let join = (lo.unwrap_or(0)..order.len()).find(|&p| elements(order[p][0]) == len);
                let p = join.unwrap_or_else(|| {
                    let p = lo.map_or(0, |l| l + 1);
                    order.insert(p, Vec::new());
                    for q in pos_of.values_mut() {
                        if *q >= p {
                            *q += 1;
                        }
                    }
                    p
                });
                order[p].push(id);
                pos_of.insert(id, p);
            }
            for nodes in order {
                for &id in &nodes {
                    loop_of[id] = Some(groups.len());
                }
                groups.push(nodes);
                is_loop.push(true);
            }
            for &id in &stage.nodes {
                if !graph.node(id).op.is_fusible() {
                    groups.push(vec![id]);
                    is_loop.push(false);
                }
            }
        }

        // Materialise every loop value read outside its loop or through a
        // non-identity walk, and every program output.
        fn materialise(r: NodeId, homes: &mut [Home]) {
            if homes[r] == Home::Block {
                homes[r] = Home::Buffer;
            }
        }
        for (g, nodes) in groups.iter().enumerate() {
            for &id in nodes {
                let op = &graph.node(id).op;
                let identity_reads = matches!(
                    op,
                    Op::Unary { .. } | Op::Binary { .. } | Op::Select { .. } | Op::Convert { .. }
                );
                for o in op.operands() {
                    let r = root[o];
                    let same_loop = is_loop[g] && loop_of[r] == Some(g);
                    if !(same_loop && identity_reads && elements(o) == elements(id)) {
                        materialise(r, &mut homes);
                    }
                }
            }
        }
        for &o in &graph.outputs {
            materialise(root[o], &mut homes);
        }

        let steps: Vec<Step> = groups
            .iter()
            .zip(&is_loop)
            .map(|(nodes, &is_loop)| {
                if is_loop {
                    Step::Loop(LoopBuilder::new(graph, &root, &homes).build(nodes))
                } else {
                    Step::Node(nodes[0])
                }
            })
            .collect();

        // Liveness: drop each owned buffer after the last step reading it.
        let mut last_read: Vec<Option<usize>> = vec![None; n];
        for (s, step) in steps.iter().enumerate() {
            let reads: Vec<NodeId> = match step {
                Step::Loop(l) => l.insts.iter().flat_map(Inst::buffer_reads).collect(),
                Step::Node(id) => graph
                    .node(*id)
                    .op
                    .operands()
                    .iter()
                    .map(|&o| root[o])
                    .collect(),
            };
            for r in reads {
                last_read[r] = Some(s);
            }
            let written: Vec<NodeId> = match step {
                Step::Loop(l) => l.buffers.clone(),
                Step::Node(id) => vec![*id],
            };
            for w in written {
                last_read[w].get_or_insert(s);
            }
        }
        for &o in &graph.outputs {
            last_read[root[o]] = None;
        }
        let mut frees = vec![Vec::new(); steps.len()];
        for (r, last) in last_read.iter().enumerate() {
            if let (Some(s), Home::Buffer) = (last, &homes[r]) {
                frees[*s].push(r);
            }
        }

        Plan {
            root,
            homes,
            steps,
            frees,
        }
    }
}

/// Emits one loop's instructions, then packs its scratch slots.
struct LoopBuilder<'a> {
    graph: &'a Graph,
    root: &'a [NodeId],
    homes: &'a [Home],
    insts: Vec<Inst>,
    /// Element type of each virtual slot.
    slot_types: Vec<DType>,
    /// Virtual slot holding each block-only node.
    slot_of: HashMap<NodeId, usize>,
    /// Walks already loaded this block, by (root, walk).
    loads: Vec<(NodeId, Walk, usize)>,
}

impl<'a> LoopBuilder<'a> {
    fn new(graph: &'a Graph, root: &'a [NodeId], homes: &'a [Home]) -> Self {
        Self {
            graph,
            root,
            homes,
            insts: Vec::new(),
            slot_types: Vec::new(),
            slot_of: HashMap::new(),
            loads: Vec::new(),
        }
    }

    fn slot(&mut self, dtype: DType) -> usize {
        self.slot_types.push(dtype);
        self.slot_types.len() - 1
    }

    /// How node `c` reads operand `x` (NumPy broadcasting).
    fn src(&mut self, c: NodeId, x: NodeId) -> Src {
        let (cn, xn) = (self.graph.node(c), self.graph.node(x));
        let r = self.root[x];
        if xn.shape.elements() == cn.shape.elements() {
            return match self.slot_of.get(&r) {
                Some(&v) => Src::Slot(v),
                None => Src::Buffer(r),
            };
        }
        if xn.shape.elements() == 1 {
            return Src::Splat(r);
        }
        let walk = Walk::broadcast(&xn.shape, &cn.shape);
        if let Some(&(_, _, v)) = self
            .loads
            .iter()
            .find(|(lr, lw, _)| *lr == r && *lw == walk)
        {
            return Src::Slot(v);
        }
        let v = self.slot(xn.dtype);
        self.insts.push(Inst {
            kind: Kind::Load {
                root: r,
                walk: walk.clone(),
            },
            srcs: Vec::new(),
            dst: Dst::Slot(v),
        });
        self.loads.push((r, walk, v));
        Src::Slot(v)
    }

    fn build(mut self, nodes: &[NodeId]) -> Loop {
        let mut buffers = Vec::new();
        for &id in nodes {
            let node = self.graph.node(id);
            let (kind, srcs) = match &node.op {
                Op::Iota { .. } => (Kind::Iota, vec![]),
                Op::Unary { op, a } => (Kind::Unary(*op), vec![self.src(id, *a)]),
                Op::Binary { op, a, b } => (
                    Kind::Binary(*op, self.graph.node(*a).dtype),
                    vec![self.src(id, *a), self.src(id, *b)],
                ),
                Op::Select {
                    cond,
                    on_true,
                    on_false,
                } => (
                    Kind::Select,
                    vec![
                        self.src(id, *cond),
                        self.src(id, *on_true),
                        self.src(id, *on_false),
                    ],
                ),
                Op::Convert { a, .. } => (
                    Kind::Convert(self.graph.node(*a).dtype),
                    vec![self.src(id, *a)],
                ),
                Op::BroadcastTo { a } => {
                    let walk = Walk::broadcast(&self.graph.node(*a).shape, &node.shape);
                    (
                        Kind::Load {
                            root: self.root[*a],
                            walk,
                        },
                        vec![],
                    )
                }
                Op::SliceAxis { a, axis, start, .. } => {
                    let walk = Walk::slice(&self.graph.node(*a).shape, *axis, *start, &node.shape);
                    (
                        Kind::Load {
                            root: self.root[*a],
                            walk,
                        },
                        vec![],
                    )
                }
                Op::StackLast { parts } => (
                    Kind::Stack(parts.iter().map(|&p| self.root[p]).collect()),
                    vec![],
                ),
                op => unreachable!("{op:?} does not run in a loop"),
            };
            // Its buffer, or a slot numbered after the operands' loads.
            let dst = if self.homes[id] == Home::Buffer {
                buffers.push(id);
                Dst::Buffer(id)
            } else {
                let v = self.slot(node.dtype);
                self.slot_of.insert(id, v);
                Dst::Slot(v)
            };
            self.insts.push(Inst { kind, srcs, dst });
        }
        let len = self.graph.node(nodes[0]).shape.elements();
        let (insts, slots) = pack_slots(self.insts, &self.slot_types);
        Loop {
            len,
            buffers,
            slots,
            insts,
        }
    }
}

/// Map virtual slots onto as few physical slots as their lifetimes allow
/// (a linear scan: a slot is free again after its last reader).
fn pack_slots(mut insts: Vec<Inst>, types: &[DType]) -> (Vec<Inst>, Vec<DType>) {
    let mut last_read = vec![None; types.len()];
    for (i, inst) in insts.iter().enumerate() {
        for v in inst.slot_reads() {
            last_read[v] = Some(i);
        }
    }
    let mut phys = vec![usize::MAX; types.len()];
    let mut physical: Vec<DType> = Vec::new();
    let mut free: Vec<usize> = Vec::new();
    for (i, inst) in insts.iter().enumerate() {
        if let Dst::Slot(v) = inst.dst {
            let t = types[v];
            phys[v] = match free.iter().position(|&p| physical[p] == t) {
                Some(k) => free.swap_remove(k),
                None => {
                    physical.push(t);
                    physical.len() - 1
                }
            };
        }
        let mut dead: Vec<usize> = inst
            .slot_reads()
            .filter(|&v| last_read[v] == Some(i))
            .collect();
        dead.sort_unstable();
        dead.dedup();
        free.extend(dead.into_iter().map(|v| phys[v]));
    }
    for inst in &mut insts {
        for s in &mut inst.srcs {
            if let Src::Slot(v) = s {
                *v = phys[*v];
            }
        }
        if let Dst::Slot(v) = &mut inst.dst {
            *v = phys[*v];
        }
    }
    (insts, physical)
}
