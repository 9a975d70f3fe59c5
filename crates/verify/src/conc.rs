//! Static concurrency verification of a lowered execution plan — the fourth
//! verifier family, and the one that makes parallel DAG node scheduling
//! safe by construction.
//!
//! PR 9's liveness arena deliberately aliases activation buffers, which is
//! provably safe for *serial* node execution but unproven the moment two
//! DAG nodes run concurrently. This module closes that gap statically:
//!
//! 1. every node is lifted into a typed access footprint — its activation
//!    arena read/write spans (from the recorded `memplan` offsets), its
//!    modeled workspace slice, and for GEMM nodes the per-thread column
//!    partition and packed-panel slices the parallel driver will write;
//! 2. the DAG's **may-run-concurrently** relation is the set of node pairs
//!    incomparable under topological reachability, and the one concurrency
//!    rule is that every such pair has disjoint arena and workspace
//!    footprints — the data partition the paper parallelizes by, where each
//!    worker owns a disjoint share and nothing is ordered around a conflict;
//! 3. a declared wave schedule is admitted only when dependencies strictly
//!    increase across waves, every value placement stays disjoint under
//!    wave-coarsened liveness, and the certificate digest matches a full
//!    recomputation — so a forged or stale certificate is rejected, not
//!    trusted.
//!
//! Like `verify::plan`, everything here is backend-neutral: `lowbit` lowers
//! its `ExecutionPlan` into a [`ConcSpec`] + [`ScheduleSpec`] and the
//! verifier re-proves the claims from scratch. The spec holds clones of the
//! plan's own node and value tables ([`NodePlan`], [`ValuePlan`]); each
//! [`ConcNode`] adds only what the plan does not record — the node's
//! workspace slice, GEMM footprint and column partition. On success
//! [`verify_conc`] returns a [`ConcProof`]; on failure a typed
//! [`ConcViolation`] witness.

use crate::geometry::check_spans;
use crate::plan::{max_panel_bytes, panel_bytes, ArenaRequirement, NodePlan, ValuePlan};
use lowbit_conv_arm::ArmAlgo;
use lowbit_qgemm::ColumnSpan;
use lowbit_tensor::Fnv1a;
use std::borrow::Borrow;

/// A half-open byte span `[offset, offset + bytes)` in a named arena.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct MemSpan {
    /// First byte.
    pub offset: usize,
    /// Length (0 = the empty span, which never overlaps anything).
    pub bytes: usize,
}

impl MemSpan {
    /// One past the last byte.
    pub fn end(&self) -> usize {
        self.offset + self.bytes
    }

    /// True when the two spans share at least one byte.
    pub fn overlaps(&self, o: &MemSpan) -> bool {
        self.bytes > 0 && o.bytes > 0 && self.offset < o.end() && o.offset < self.end()
    }
}

/// The GEMM geometry of a conv node whose kernels partition work across
/// threads — what the partition and panel proofs are checked against.
///
/// For Winograd this is the geometry of each of its 16 position GEMMs:
/// `m = c_out`, `k = c_in` and `n` = the 2x2 output tiles, which its
/// threads split exactly like a GEMM's columns.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct GemmFootprint {
    /// GEMM rows (output channels).
    pub m: usize,
    /// Shared dimension.
    pub k: usize,
    /// GEMM columns (output pixels, or Winograd tiles) — the partitioned
    /// dimension.
    pub n: usize,
    /// The committed ARM kernel family.
    pub algo: ArmAlgo,
}

impl GemmFootprint {
    /// The footprint of `algo` on `shape`.
    pub fn of(shape: &lowbit_tensor::ConvShape, algo: ArmAlgo) -> GemmFootprint {
        let (m, k, n) = match algo {
            ArmAlgo::Winograd => (shape.c_out, shape.c_in, shape.winograd_tiles()),
            _ => (shape.gemm_m(), shape.gemm_k(), shape.gemm_n()),
        };
        GemmFootprint { m, k, n, algo }
    }

    /// The workspace bytes this node's kernels will request — the bound its
    /// declared workspace slice must dominate.
    pub fn required_workspace(&self) -> ArenaRequirement {
        let (m, k, n) = (self.m, self.k, self.n);
        let (b, planes) = match (self.algo.tile(), self.algo) {
            // The GEMM family's B operand is the im2col matrix.
            (Some(_), _) => (k * n, 0),
            // Winograd's is the 16 transformed-input matrices, and its
            // position GEMMs add into four i32 output planes.
            (None, ArmAlgo::Winograd) => (16 * k * n, 16 * m * n),
            // The bitserial baseline allocates its own buffers per call; it
            // does not grow the shared arena. `Auto` names no kernel; both
            // verifiers reject it.
            (None, _) => return ArenaRequirement::default(),
        };
        // Both families' GEMMs pack one B panel per column or tile span.
        ArenaRequirement { b, panels: max_panel_bytes(k, n), planes }
    }
}

/// One DAG node's declared access footprint: the plan's node (its name,
/// the value ids it reads, including a fused residual operand, and the one
/// it writes) beside the three facts the plan's node table does not hold.
#[derive(Clone, Debug)]
pub struct ConcNode {
    /// The plan's node.
    pub node: NodePlan,
    /// The modeled workspace slice the node's kernels are confined to
    /// (`MemSpan::default()` for nodes that touch no workspace).
    pub workspace: MemSpan,
    /// GEMM geometry for partitioned kernels (`None` for Add/Concat, GPU
    /// layers and the per-call-buffer bitserial baseline).
    pub gemm: Option<GemmFootprint>,
    /// The declared per-thread column partition of the GEMM output at the
    /// maximum thread count (empty spans legal per the hardened
    /// `partition_columns` contract; empty vec for non-GEMM nodes).
    pub partition: Vec<ColumnSpan>,
}

impl Borrow<NodePlan> for ConcNode {
    fn borrow(&self) -> &NodePlan {
        &self.node
    }
}

/// A value's recorded activation-arena placement.
fn placement(value: &ValuePlan) -> MemSpan {
    MemSpan { offset: value.offset, bytes: value.bytes }
}

/// The backend-neutral concurrency lowering of a compiled execution plan.
#[derive(Clone, Debug)]
pub struct ConcSpec {
    /// DAG nodes in topological (execution) order.
    pub nodes: Vec<ConcNode>,
    /// The plan's values, whose recorded placements in the activation arena
    /// the footprints read.
    pub values: Vec<ValuePlan>,
    /// The value held live through the final dequantization.
    pub output_value: usize,
    /// Declared activation-arena high-water bytes.
    pub arena_bytes: usize,
    /// Declared parallel workspace-arena bytes (every node slice must fit).
    pub workspace_bytes: usize,
}

/// The wave schedule a plan declares — the claim [`verify_conc`]
/// re-proves.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ScheduleSpec {
    /// Node ids grouped into waves; wave `w` may start only after wave
    /// `w - 1` completes, and nodes within a wave may run concurrently.
    pub waves: Vec<Vec<usize>>,
    /// FNV-1a digest over the footprints and the schedule — the certificate
    /// the executor checks before engaging parallel node execution.
    pub certificate: u64,
}

/// A typed counterexample from the concurrency verifier.
#[derive(Clone, Debug, PartialEq)]
pub enum ConcViolation {
    /// Two values that can be live at the same time — under the declared
    /// wave schedule, or touched by two nodes that may run concurrently —
    /// were placed on overlapping arena byte ranges.
    ArenaInterference {
        /// First value id.
        a: usize,
        /// Its `[offset, end)` span.
        a_span: (usize, usize),
        /// Second value id.
        b: usize,
        /// Its `[offset, end)` span.
        b_span: (usize, usize),
        /// Where the two lifetimes collide.
        context: String,
    },
    /// Two nodes that may run concurrently share workspace bytes.
    WorkspaceAliasing {
        /// First node name.
        a: String,
        /// Its workspace slice `[offset, end)`.
        a_span: (usize, usize),
        /// Second node name.
        b: String,
        /// Its workspace slice `[offset, end)`.
        b_span: (usize, usize),
    },
    /// A node's kernels write outside its declared spans: an arena
    /// placement past the declared arena, or a workspace slice smaller than
    /// the kernels' certified requirement or escaping the workspace arena.
    FootprintEscape {
        /// The offending node (or value, as `v{id}`).
        node: String,
        /// Which declared span is escaped.
        what: String,
        /// The span actually touched `[offset, end)`.
        span: (usize, usize),
        /// The bound it must stay within.
        bound: usize,
    },
    /// A GEMM node's declared per-thread partition is not a disjoint,
    /// covering, tile-aligned split — or its packed panels / SDOT-padded
    /// slices escape the certified panel budget.
    PartitionOverlap {
        /// The offending node.
        node: String,
        /// The structural defect.
        detail: String,
    },
    /// The declared schedule contradicts topological reachability: a node
    /// is scheduled no later than a node it depends on.
    ReachabilityError {
        /// The producing node.
        from: String,
        /// The consuming node scheduled too early.
        to: String,
        /// Wave of the producer.
        from_wave: usize,
        /// Wave of the consumer.
        to_wave: usize,
    },
    /// The certificate digest does not match a recomputation over the
    /// footprints and schedule — the certificate was forged or is stale.
    CertificateForged {
        /// The digest the plan declares.
        declared: u64,
        /// The digest the verifier computed.
        computed: u64,
    },
    /// The wave list is not a permutation of the nodes, or an id is out of
    /// range.
    ScheduleBroken {
        /// What is broken.
        detail: String,
    },
}

impl std::fmt::Display for ConcViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConcViolation::ArenaInterference { a, a_span, b, b_span, context } => write!(
                f,
                "values v{a} [{}, {}) and v{b} [{}, {}) can be live together ({context}) but \
                 their arena spans overlap",
                a_span.0, a_span.1, b_span.0, b_span.1
            ),
            ConcViolation::WorkspaceAliasing { a, a_span, b, b_span } => write!(
                f,
                "{a} [{}, {}) and {b} [{}, {}) may run concurrently but their workspace slices \
                 overlap",
                a_span.0, a_span.1, b_span.0, b_span.1
            ),
            ConcViolation::FootprintEscape { node, what, span, bound } => write!(
                f,
                "{node}: {what} [{}, {}) escapes the declared bound {bound}",
                span.0, span.1
            ),
            ConcViolation::PartitionOverlap { node, detail } => {
                write!(f, "{node}: partition broken: {detail}")
            }
            ConcViolation::ReachabilityError { from, to, from_wave, to_wave } => write!(
                f,
                "{to} (wave {to_wave}) depends on {from} (wave {from_wave}) but is not \
                 scheduled strictly later"
            ),
            ConcViolation::CertificateForged { declared, computed } => write!(
                f,
                "certificate {declared:#018x} does not match the recomputed digest \
                 {computed:#018x}"
            ),
            ConcViolation::ScheduleBroken { detail } => {
                write!(f, "schedule broken: {detail}")
            }
        }
    }
}

/// The certificate [`verify_conc`] returns on success.
#[derive(Clone, Debug)]
pub struct ConcProof {
    /// Node count.
    pub nodes: usize,
    /// Conv nodes carrying a GEMM partition proof.
    pub gemm_nodes: usize,
    /// Value count.
    pub values: usize,
    /// Node names per wave, in wave order.
    pub waves: Vec<Vec<String>>,
    /// Count of incomparable (may-run-concurrently) node pairs.
    pub incomparable_pairs: usize,
    /// Widest wave (1 = the plan is effectively serial).
    pub max_wave_width: usize,
    /// Declared activation-arena bytes the placements were proven within.
    pub arena_bytes: usize,
    /// Declared workspace-arena bytes the slices were proven within.
    pub workspace_bytes: usize,
    /// The validated certificate digest.
    pub certificate: u64,
}

impl ConcProof {
    /// Renders the proof as a deterministic aligned table (the golden-file
    /// format the CI `--conc --check` diffs).
    pub fn report(&self) -> String {
        let mut out = format!("{:<6} {:>5}  nodes\n", "wave", "width");
        for (w, names) in self.waves.iter().enumerate() {
            out.push_str(&format!("{:<6} {:>5}  {}\n", w, names.len(), names.join(" ")));
        }
        out.push_str(&format!(
            "nodes {}  gemm {}  values {}  waves {}  max width {}\n",
            self.nodes,
            self.gemm_nodes,
            self.values,
            self.waves.len(),
            self.max_wave_width
        ));
        out.push_str(&format!("may-run-concurrently pairs {}\n", self.incomparable_pairs));
        out.push_str(&format!(
            "arena: wave-coarsened liveness disjoint within {} declared bytes\n",
            self.arena_bytes
        ));
        out.push_str(&format!(
            "workspace: concurrent slices disjoint within {} declared bytes\n",
            self.workspace_bytes
        ));
        out.push_str(&format!("certificate {:#018x}\n", self.certificate));
        out
    }

    /// Deterministic JSON rendering for machine consumption (`--json`).
    pub fn to_json(&self) -> String {
        let waves: Vec<String> = self
            .waves
            .iter()
            .map(|names| {
                let quoted: Vec<String> = names.iter().map(|n| format!("\"{n}\"")).collect();
                format!("[{}]", quoted.join(","))
            })
            .collect();
        format!(
            "{{\n  \"nodes\":{},\n  \"gemm_nodes\":{},\n  \"values\":{},\n  \
\"waves\": [{}],\n  \"incomparable_pairs\":{},\n  \"max_wave_width\":{},\n  \
\"arena_bytes\":{},\n  \"workspace_bytes\":{},\n  \"certificate\":\"{:#018x}\"\n}}\n",
            self.nodes,
            self.gemm_nodes,
            self.values,
            waves.join(","),
            self.incomparable_pairs,
            self.max_wave_width,
            self.arena_bytes,
            self.workspace_bytes,
            self.certificate
        )
    }
}

/// Reachability under the dependency relation: `reach[i][j]` is true when
/// node `j` transitively consumes node `i`'s output. Nodes are required to
/// be in topological order (the plan verifier proves this independently),
/// so one forward sweep inheriting each producer's ancestors closes the
/// relation. Takes the plan's node table or the concurrency spec's nodes.
pub fn reachability<N: Borrow<NodePlan>>(nodes: &[N]) -> Vec<Vec<bool>> {
    let n = nodes.len();
    // producer[v] = node that writes value v.
    let mut producer: Vec<Option<usize>> = Vec::new();
    for (i, node) in nodes.iter().enumerate() {
        let output = node.borrow().output;
        if producer.len() <= output {
            producer.resize(output + 1, None);
        }
        producer[output] = Some(i);
    }
    let mut reach = vec![vec![false; n]; n];
    for j in 0..n {
        for &v in &nodes[j].borrow().inputs {
            if let Some(i) = producer.get(v).copied().flatten() {
                if i < j {
                    reach[i][j] = true;
                    // Inherit everything that reaches the producer.
                    for row in reach.iter_mut().take(i) {
                        if row[i] {
                            row[j] = true;
                        }
                    }
                }
            }
        }
    }
    reach
}

/// True when nodes `i` and `j` are incomparable — neither can observe the
/// other's completion, so a scheduler is free to run them concurrently.
fn may_run_concurrently(reach: &[Vec<bool>], i: usize, j: usize) -> bool {
    !reach[i][j] && !reach[j][i]
}

/// The witness of two node footprints colliding: [`ConcViolation::ArenaInterference`]
/// when one's write span touches the other's read or write spans,
/// [`ConcViolation::WorkspaceAliasing`] when their workspace slices share
/// bytes, `None` when the footprints are disjoint.
fn overlap_witness(spec: &ConcSpec, i: usize, j: usize) -> Option<ConcViolation> {
    let (a, b) = (&spec.nodes[i], &spec.nodes[j]);
    let span = |v: usize| placement(&spec.values[v]);
    // The first value `x` reads or writes that `y`'s write span touches.
    let hit = |x: &NodePlan, y: &NodePlan| {
        let mut touched = std::iter::once(x.output).chain(x.inputs.iter().copied());
        touched.find(|&v| span(y.output).overlaps(&span(v))).map(|v| (y.output, v))
    };
    if let Some((u, v)) = hit(&a.node, &b.node).or_else(|| hit(&b.node, &a.node)) {
        let (u, v) = (u.min(v), u.max(v));
        return Some(ConcViolation::ArenaInterference {
            a: u,
            a_span: (span(u).offset, span(u).end()),
            b: v,
            b_span: (span(v).offset, span(v).end()),
            context: format!("{} and {} may run concurrently", a.node.name, b.node.name),
        });
    }
    if a.workspace.overlaps(&b.workspace) {
        return Some(ConcViolation::WorkspaceAliasing {
            a: a.node.name.clone(),
            a_span: (a.workspace.offset, a.workspace.end()),
            b: b.node.name.clone(),
            b_span: (b.workspace.offset, b.workspace.end()),
        });
    }
    None
}

/// The certificate digest: FNV-1a over every fact the proof depends on —
/// node footprints, value placements, arena bounds and waves. Any drift
/// between what was certified and what is executed changes the digest, so a
/// schedule cannot be spliced onto a different plan.
pub fn schedule_digest(spec: &ConcSpec, waves: &[Vec<usize>]) -> u64 {
    let mut h = Fnv1a::default();
    h.eat_word(spec.nodes.len());
    for ConcNode { node, workspace, gemm, partition } in &spec.nodes {
        h.eat(node.name.as_bytes());
        for &v in &node.inputs {
            h.eat_word(v);
        }
        h.eat_word(node.output);
        h.eat_word(workspace.offset);
        h.eat_word(workspace.bytes);
        if let Some(g) = gemm {
            h.eat_word(g.m);
            h.eat_word(g.k);
            h.eat_word(g.n);
            h.eat(g.algo.name().as_bytes());
        }
        for s in partition {
            h.eat_word(s.col0);
            h.eat_word(s.cols);
        }
    }
    h.eat_word(spec.values.len());
    for v in &spec.values {
        h.eat_word(v.offset);
        h.eat_word(v.bytes);
    }
    h.eat_word(spec.output_value);
    h.eat_word(spec.arena_bytes);
    h.eat_word(spec.workspace_bytes);
    h.eat_word(waves.len());
    for wave in waves {
        h.eat_word(wave.len());
        for &n in wave {
            h.eat_word(n);
        }
    }
    h.0
}

/// Computes the schedule for a spec: dependency-level waves, where a node
/// runs one wave after its last dependency, and the certificate digest.
///
/// The waves need no conflict handling because the planner places every
/// footprint so that nodes which may run concurrently never overlap;
/// `verify_conc(spec, &schedule)` re-proves that as the planner's debug
/// gate.
pub fn build_schedule(spec: &ConcSpec) -> ScheduleSpec {
    let n = spec.nodes.len();
    let reach = reachability(&spec.nodes);
    let mut wave_of = vec![0usize; n];
    for j in 0..n {
        wave_of[j] = (0..j).filter(|&i| reach[i][j]).map(|i| wave_of[i] + 1).max().unwrap_or(0);
    }
    let wave_count = wave_of.iter().copied().max().map_or(0, |m| m + 1);
    let mut waves: Vec<Vec<usize>> = vec![Vec::new(); wave_count];
    for (node, &w) in wave_of.iter().enumerate() {
        waves[w].push(node);
    }
    let certificate = schedule_digest(spec, &waves);
    ScheduleSpec { waves, certificate }
}

/// Verifies a declared wave schedule against a spec, re-proving every claim
/// from scratch. Check order is fixed so each mutant of the negative catalog
/// is caught by its own witness before the certificate comparison runs:
/// schedule structure, reachability, footprints, partitions, disjointness
/// of every may-run-concurrently pair, wave-coarsened value liveness, and
/// finally the certificate digest.
pub fn verify_conc(spec: &ConcSpec, sched: &ScheduleSpec) -> Result<ConcProof, ConcViolation> {
    let n = spec.nodes.len();

    // -- 1. The wave list is a permutation of the nodes. ---------------------
    let mut wave_of = vec![usize::MAX; n];
    for (w, wave) in sched.waves.iter().enumerate() {
        for &node in wave {
            if node >= n {
                return Err(ConcViolation::ScheduleBroken {
                    detail: format!("wave {w} names node {node} but the plan has {n} nodes"),
                });
            }
            if wave_of[node] != usize::MAX {
                return Err(ConcViolation::ScheduleBroken {
                    detail: format!("node {} appears in two waves", spec.nodes[node].node.name),
                });
            }
            wave_of[node] = w;
        }
    }
    if let Some(missing) = wave_of.iter().position(|&w| w == usize::MAX) {
        return Err(ConcViolation::ScheduleBroken {
            detail: format!("node {} is not scheduled in any wave", spec.nodes[missing].node.name),
        });
    }

    // -- 2. Dependencies strictly increase across waves. ---------------------
    let reach = reachability(&spec.nodes);
    for j in 0..n {
        for i in 0..j {
            if reach[i][j] && wave_of[i] >= wave_of[j] {
                return Err(ConcViolation::ReachabilityError {
                    from: spec.nodes[i].node.name.clone(),
                    to: spec.nodes[j].node.name.clone(),
                    from_wave: wave_of[i],
                    to_wave: wave_of[j],
                });
            }
        }
    }

    // -- 3. Footprints stay inside their declared spans. ---------------------
    for (v, value) in spec.values.iter().enumerate() {
        if placement(value).end() > spec.arena_bytes {
            return Err(ConcViolation::FootprintEscape {
                node: format!("v{v}"),
                what: "arena placement".into(),
                span: (value.offset, placement(value).end()),
                bound: spec.arena_bytes,
            });
        }
    }
    for ConcNode { node, workspace, gemm, .. } in &spec.nodes {
        if workspace.end() > spec.workspace_bytes {
            return Err(ConcViolation::FootprintEscape {
                node: node.name.clone(),
                what: "workspace slice".into(),
                span: (workspace.offset, workspace.end()),
                bound: spec.workspace_bytes,
            });
        }
        if let Some(g) = gemm {
            let required = g.required_workspace().total();
            if workspace.bytes < required {
                return Err(ConcViolation::FootprintEscape {
                    node: node.name.clone(),
                    what: "workspace requirement".into(),
                    span: (workspace.offset, workspace.offset + required),
                    bound: workspace.end(),
                });
            }
        }
    }

    // -- 4. Per-thread partitions: disjoint, covering, panel-bounded. --------
    // `check_spans` accepts the hardened empty spans and proves contiguity,
    // disjointness, NB alignment and coverage; on top of it the packed-panel
    // slices (carved off one buffer in span order) must fit the certified
    // panel budget, which is the same for the GEMM family and Winograd.
    // The NB-aligned interior boundaries give the final padded column tile —
    // the columns `[n, n.next_multiple_of(NB))` a B panel zero-fills — to
    // exactly one thread, for every tile kind of the driver.
    for ConcNode { node, gemm, partition, .. } in &spec.nodes {
        let Some(g) = gemm else { continue };
        if let Err(v) = check_spans(partition, g.n) {
            return Err(ConcViolation::PartitionOverlap {
                node: node.name.clone(),
                detail: v.to_string(),
            });
        }
        if g.algo == ArmAlgo::Auto {
            return Err(ConcViolation::PartitionOverlap {
                node: node.name.clone(),
                detail: "an unresolved Auto kernel has no certified panel budget".into(),
            });
        }
        let certified = g.required_workspace().panels;
        let panel_total = panel_bytes(g.k, partition.iter().copied());
        if panel_total > certified {
            return Err(ConcViolation::PartitionOverlap {
                node: node.name.clone(),
                detail: format!(
                    "packed panels need {panel_total} bytes but {certified} are certified"
                ),
            });
        }
    }

    // -- 5. Nodes that may run concurrently never overlap. -------------------
    // Whatever waves the pair sits in. Check 2 makes every pair of
    // wave-mates a may-run-concurrently pair, and this check compares a
    // superset of what a wave-mate check would: each node's write span
    // against the other's read and write spans, plus the workspace slices.
    // So co-scheduled nodes need no check of their own.
    for i in 0..n {
        for j in i + 1..n {
            if may_run_concurrently(&reach, i, j) {
                if let Some(witness) = overlap_witness(spec, i, j) {
                    return Err(witness);
                }
            }
        }
    }

    // -- 6. Value placements disjoint under wave-coarsened liveness. ---------
    // Under wave execution a value exists from the start of its defining
    // wave (inputs: before wave 0) until the end of the last wave that reads
    // it (the output value: the final wave). Overlapping wave ranges must
    // mean disjoint spans — this is the parallel generalization of the plan
    // verifier's serial offset-disjointness pass, and the reason
    // `memplan::assign_arena_with` exists.
    let last_wave = sched.waves.len().saturating_sub(1);
    let mut live: Vec<(usize, usize)> = vec![(0, 0); spec.values.len()];
    for (v, range) in live.iter_mut().enumerate() {
        let def = spec
            .nodes
            .iter()
            .enumerate()
            .find(|(_, n)| n.node.output == v)
            .map(|(i, _)| wave_of[i])
            .unwrap_or(0);
        let mut last = def;
        for (i, n) in spec.nodes.iter().enumerate() {
            if n.node.inputs.contains(&v) {
                last = last.max(wave_of[i]);
            }
        }
        if v == spec.output_value {
            last = last.max(last_wave);
        }
        *range = (def, last);
    }
    for a in 0..spec.values.len() {
        for b in a + 1..spec.values.len() {
            let (da, la) = live[a];
            let (db, lb) = live[b];
            if da <= lb && db <= la {
                let (sa, sb) = (placement(&spec.values[a]), placement(&spec.values[b]));
                if sa.overlaps(&sb) {
                    return Err(ConcViolation::ArenaInterference {
                        a,
                        a_span: (sa.offset, sa.end()),
                        b,
                        b_span: (sb.offset, sb.end()),
                        context: format!("waves [{da}, {la}] and [{db}, {lb}]"),
                    });
                }
            }
        }
    }

    // -- 7. The certificate digest matches a full recomputation. -------------
    let computed = schedule_digest(spec, &sched.waves);
    if computed != sched.certificate {
        return Err(ConcViolation::CertificateForged {
            declared: sched.certificate,
            computed,
        });
    }

    let mut incomparable = 0usize;
    for i in 0..n {
        for j in i + 1..n {
            if may_run_concurrently(&reach, i, j) {
                incomparable += 1;
            }
        }
    }
    Ok(ConcProof {
        nodes: n,
        gemm_nodes: spec.nodes.iter().filter(|nd| nd.gemm.is_some()).count(),
        values: spec.values.len(),
        waves: sched
            .waves
            .iter()
            .map(|wave| wave.iter().map(|&i| spec.nodes[i].node.name.clone()).collect())
            .collect(),
        incomparable_pairs: incomparable,
        max_wave_width: sched.waves.iter().map(Vec::len).max().unwrap_or(0),
        arena_bytes: spec.arena_bytes,
        workspace_bytes: spec.workspace_bytes,
        certificate: sched.certificate,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A conv-free node with a workspace slice.
    fn node(name: &str, inputs: Vec<usize>, output: usize, workspace: MemSpan) -> ConcNode {
        let op = crate::plan::PlanOp::Add;
        ConcNode {
            node: NodePlan { name: name.into(), op, inputs, output },
            workspace,
            gemm: None,
            partition: Vec::new(),
        }
    }

    /// A value placed at `[offset, offset + bytes)` (the concurrency checks
    /// read nothing else of it).
    fn value(offset: usize, bytes: usize) -> ValuePlan {
        let (bits, layout) = (lowbit_tensor::BitWidth::W4, lowbit_tensor::Layout::Nchw);
        ValuePlan { dims: (1, bytes, 1, 1), bits, layout, bytes, offset, def: 0, last_use: 0 }
    }

    /// A diamond: input -> a; a -> b; a -> c; (b, c) -> d. b and c are
    /// incomparable. Arena placements are always disjoint (both branch
    /// outputs feed the join, so they are co-live under *every* schedule);
    /// `disjoint` controls whether the branches' workspace slices collide —
    /// an overlap no schedule may carry.
    fn diamond(disjoint: bool) -> ConcSpec {
        let ws_c = if disjoint { 64 } else { 32 };
        ConcSpec {
            nodes: vec![
                node("a", vec![0], 1, MemSpan { offset: 0, bytes: 64 }),
                node("b", vec![1], 2, MemSpan { offset: 0, bytes: 64 }),
                node("c", vec![1], 3, MemSpan { offset: ws_c, bytes: 64 }),
                node("d", vec![2, 3], 4, MemSpan::default()),
            ],
            values: [0, 100, 200, 300, 0].map(|offset| value(offset, 100)).to_vec(),
            output_value: 4,
            arena_bytes: 400,
            workspace_bytes: 128,
        }
    }

    #[test]
    fn diamond_schedules_b_and_c_in_one_wave() {
        let spec = diamond(true);
        let sched = build_schedule(&spec);
        let proof = verify_conc(&spec, &sched).expect("disjoint diamond certifies");
        assert_eq!(proof.max_wave_width, 2);
        assert_eq!(proof.incomparable_pairs, 1);
        assert_eq!(sched.waves, vec![vec![0], vec![1, 2], vec![3]]);
    }

    #[test]
    fn overlapping_concurrent_branches_are_rejected_in_any_waves() {
        // b and c share workspace bytes and may run concurrently, so no
        // waves certify them: neither co-scheduled nor kept apart.
        let spec = diamond(false);
        let co_scheduled = build_schedule(&spec).waves;
        assert_eq!(co_scheduled, vec![vec![0], vec![1, 2], vec![3]]);
        let separated = vec![vec![0], vec![1], vec![2], vec![3]];
        for waves in [co_scheduled, separated] {
            let certificate = schedule_digest(&spec, &waves);
            let got = verify_conc(&spec, &ScheduleSpec { waves, certificate });
            assert!(matches!(got, Err(ConcViolation::WorkspaceAliasing { .. })), "got {got:?}");
        }
    }

    #[test]
    fn dependent_nodes_in_one_wave_are_a_reachability_error() {
        let spec = diamond(true);
        let mut sched = build_schedule(&spec);
        sched.waves = vec![vec![0, 1], vec![2], vec![3]];
        sched.certificate = schedule_digest(&spec, &sched.waves);
        assert!(matches!(
            verify_conc(&spec, &sched),
            Err(ConcViolation::ReachabilityError { .. })
        ));
    }

    #[test]
    fn forged_certificate_is_rejected() {
        let spec = diamond(true);
        let mut sched = build_schedule(&spec);
        sched.certificate ^= 1;
        assert!(matches!(
            verify_conc(&spec, &sched),
            Err(ConcViolation::CertificateForged { .. })
        ));
    }

    #[test]
    fn shifted_arena_offset_is_caught_under_wave_liveness() {
        let mut spec = diamond(true);
        let sched = build_schedule(&spec);
        // Shift c's output onto b's output: both live into the join wave.
        spec.values[3].offset = spec.values[2].offset;
        let got = verify_conc(&spec, &sched);
        assert!(
            matches!(got, Err(ConcViolation::ArenaInterference { a: 2, b: 3, .. })),
            "got {got:?}"
        );
    }

    #[test]
    fn an_auto_footprint_has_no_certified_panel_budget() {
        let mut spec = diamond(true);
        let g = GemmFootprint { m: 4, k: 4, n: 8, algo: ArmAlgo::Auto };
        spec.nodes[0].partition = lowbit_qgemm::partition_columns(g.n, 1).collect();
        spec.nodes[0].gemm = Some(g);
        let sched = build_schedule(&spec);
        assert!(matches!(
            verify_conc(&spec, &sched),
            Err(ConcViolation::PartitionOverlap { ref node, ref detail })
                if node == "a" && detail.contains("Auto")
        ));
    }

    #[test]
    fn chains_certify_with_serial_waves() {
        // input -> a -> b: no incomparable pairs, one node per wave.
        let spec = ConcSpec {
            nodes: vec![
                node("a", vec![0], 1, MemSpan { offset: 0, bytes: 64 }),
                node("b", vec![1], 2, MemSpan { offset: 0, bytes: 64 }),
            ],
            values: vec![value(0, 10), value(10, 10), value(0, 10)],
            output_value: 2,
            arena_bytes: 20,
            workspace_bytes: 64,
        };
        let sched = build_schedule(&spec);
        let proof = verify_conc(&spec, &sched).expect("chain certifies");
        assert_eq!(proof.max_wave_width, 1);
        assert_eq!(proof.incomparable_pairs, 0);
    }
}
