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
//!    incomparable under topological reachability; every such pair must
//!    have disjoint arena spans and disjoint workspace slices, or carry an
//!    explicit **interference edge** that constrains scheduling;
//! 3. a declared wave schedule is admitted only when dependencies strictly
//!    increase across waves, wave-mates are interference-free, every value
//!    placement stays disjoint under wave-coarsened liveness, and the
//!    certificate digest matches a full recomputation — so a forged or
//!    stale certificate is rejected, not trusted.
//!
//! Like `verify::plan`, everything here is backend-neutral: `lowbit` lowers
//! its `ExecutionPlan` into a [`ConcSpec`] + [`ScheduleSpec`] and the
//! verifier re-proves the claims from scratch. On success [`verify_conc`]
//! returns a [`ConcProof`]; on failure a typed [`ConcViolation`] witness.

use crate::geometry::check_spans;
use crate::plan::{ArenaRequirement, ArmAlgoKind, max_panel_bytes};
use lowbit_qgemm::{ColumnSpan, NB};
use lowbit_qgemm::parallel::{DEFAULT_KC, DEFAULT_NC};

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
    pub algo: ArmAlgoKind,
}

impl GemmFootprint {
    /// The footprint of `algo` on `shape`.
    pub fn of(shape: &lowbit_tensor::ConvShape, algo: ArmAlgoKind) -> GemmFootprint {
        let (m, k, n) = match algo {
            ArmAlgoKind::Winograd => (shape.c_out, shape.c_in, shape.winograd_tiles()),
            _ => (shape.gemm_m(), shape.gemm_k(), shape.gemm_n()),
        };
        GemmFootprint { m, k, n, algo }
    }

    /// The workspace bytes this node's kernels will request — the bound its
    /// declared workspace slice must dominate.
    pub fn required_workspace(&self) -> ArenaRequirement {
        let (m, k, n) = (self.m, self.k, self.n);
        match self.algo {
            ArmAlgoKind::GemmWide | ArmAlgoKind::GemmNarrow => ArenaRequirement {
                col: k * n,
                c_cm: 4 * m * n,
                panels: max_panel_bytes(k, n),
                ..ArenaRequirement::default()
            },
            ArmAlgoKind::GemmSdot => ArenaRequirement {
                col: k * n,
                bq: k.next_multiple_of(4) * n.next_multiple_of(NB),
                c_sdot: 4 * m * n,
                ..ArenaRequirement::default()
            },
            // The transformed input, the four output planes, and each tile
            // span's position-GEMM result and panel.
            ArmAlgoKind::Winograd => ArenaRequirement {
                wg_v: 16 * k * n,
                wg_planes: 16 * m * n,
                wg_c_cm: 4 * m * n,
                wg_panels: max_panel_bytes(k, n),
                ..ArenaRequirement::default()
            },
            // The baselines allocate their own buffers per call; they do
            // not grow the shared arena.
            ArmAlgoKind::NcnnBaseline | ArmAlgoKind::BitserialBaseline => {
                ArenaRequirement::default()
            }
        }
    }
}

/// One DAG node's declared access footprint.
#[derive(Clone, Debug)]
pub struct ConcNode {
    /// Node name (for witnesses).
    pub name: String,
    /// Value ids this node reads (including a fused residual operand).
    pub inputs: Vec<usize>,
    /// Value id this node writes.
    pub output: usize,
    /// The modeled workspace slice the node's kernels are confined to
    /// (`MemSpan::default()` for nodes that touch no workspace).
    pub workspace: MemSpan,
    /// GEMM geometry for partitioned kernels (`None` for Add/Concat, GPU
    /// layers and the per-call-buffer baselines).
    pub gemm: Option<GemmFootprint>,
    /// The declared per-thread column partition of the GEMM output at the
    /// maximum thread count (empty spans legal per the hardened
    /// `partition_columns` contract; empty vec for non-GEMM nodes).
    pub partition: Vec<ColumnSpan>,
}

/// One value's recorded activation-arena placement.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct ConcValue {
    /// Recorded arena byte offset.
    pub offset: usize,
    /// Recorded byte size.
    pub bytes: usize,
}

impl ConcValue {
    fn span(&self) -> MemSpan {
        MemSpan { offset: self.offset, bytes: self.bytes }
    }
}

/// The backend-neutral concurrency lowering of a compiled execution plan.
#[derive(Clone, Debug)]
pub struct ConcSpec {
    /// DAG nodes in topological (execution) order.
    pub nodes: Vec<ConcNode>,
    /// Value placements in the activation arena.
    pub values: Vec<ConcValue>,
    /// The value held live through the final dequantization.
    pub output_value: usize,
    /// Declared activation-arena high-water bytes.
    pub arena_bytes: usize,
    /// Declared parallel workspace-arena bytes (every node slice must fit).
    pub workspace_bytes: usize,
}

/// The wave schedule and interference graph a plan declares — the claim
/// [`verify_conc`] re-proves.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ScheduleSpec {
    /// Node ids grouped into waves; wave `w` may start only after wave
    /// `w - 1` completes, and nodes within a wave may run concurrently.
    pub waves: Vec<Vec<usize>>,
    /// Interference edges `(a, b)` with `a < b`: incomparable node pairs
    /// whose footprints overlap and which therefore must never share a wave.
    pub interference: Vec<(usize, usize)>,
    /// FNV-1a digest over the footprints and the schedule — the certificate
    /// the executor checks before engaging parallel node execution.
    pub certificate: u64,
}

/// A typed counterexample from the concurrency verifier.
#[derive(Clone, Debug, PartialEq)]
pub enum ConcViolation {
    /// Two values that can be live at the same time under the declared wave
    /// schedule were placed on overlapping arena byte ranges.
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
    /// Two nodes scheduled into the same wave share workspace bytes.
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
    /// An incomparable node pair whose footprints overlap is missing from
    /// the declared interference edge set — the scheduler would be free to
    /// run them together.
    InterferenceEdgeMissing {
        /// First node name.
        a: String,
        /// Second node name.
        b: String,
        /// Which resource overlaps (`"arena"` / `"workspace"`).
        resource: &'static str,
    },
    /// The certificate digest does not match a recomputation over the
    /// footprints and schedule — the certificate was forged or is stale.
    CertificateForged {
        /// The digest the plan declares.
        declared: u64,
        /// The digest the verifier computed.
        computed: u64,
    },
    /// The wave list is not a permutation of the nodes, a declared
    /// interference edge is violated, or an id is out of range.
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
                "{a} [{}, {}) and {b} [{}, {}) share a wave but their workspace slices overlap",
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
            ConcViolation::InterferenceEdgeMissing { a, b, resource } => write!(
                f,
                "{a} and {b} may run concurrently and overlap on {resource} but the \
                 interference graph has no edge between them"
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
    /// Count of certified interference edges.
    pub interference_edges: usize,
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
        out.push_str(&format!(
            "may-run-concurrently pairs {}  interference edges {}\n",
            self.incomparable_pairs, self.interference_edges
        ));
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
\"waves\": [{}],\n  \"incomparable_pairs\":{},\n  \"interference_edges\":{},\n  \
\"max_wave_width\":{},\n  \"arena_bytes\":{},\n  \"workspace_bytes\":{},\n  \
\"certificate\":\"{:#018x}\"\n}}\n",
            self.nodes,
            self.gemm_nodes,
            self.values,
            waves.join(","),
            self.incomparable_pairs,
            self.interference_edges,
            self.max_wave_width,
            self.arena_bytes,
            self.workspace_bytes,
            self.certificate
        )
    }
}

/// Reachability under the dependency relation: `reach[i][j]` is true when
/// node `j` transitively consumes node `i`'s output. Nodes are required to
/// be in topological order (the plan verifier proves this independently).
fn reachability(nodes: &[ConcNode]) -> Vec<Vec<bool>> {
    let n = nodes.len();
    // producer[v] = node that writes value v.
    let mut producer: Vec<Option<usize>> = Vec::new();
    for (i, node) in nodes.iter().enumerate() {
        if producer.len() <= node.output {
            producer.resize(node.output + 1, None);
        }
        producer[node.output] = Some(i);
    }
    let mut reach = vec![vec![false; n]; n];
    for j in 0..n {
        for &v in &nodes[j].inputs {
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

/// How two node footprints can collide: `"arena"` when one's write span
/// touches the other's read or write spans, `"workspace"` when their
/// workspace slices share bytes.
fn overlap_resource(spec: &ConcSpec, i: usize, j: usize) -> Option<&'static str> {
    let (a, b) = (&spec.nodes[i], &spec.nodes[j]);
    let wa = spec.values[a.output].span();
    let wb = spec.values[b.output].span();
    let arena = wa.overlaps(&wb)
        || b.inputs.iter().any(|&v| wa.overlaps(&spec.values[v].span()))
        || a.inputs.iter().any(|&v| wb.overlaps(&spec.values[v].span()));
    if arena {
        return Some("arena");
    }
    if a.workspace.overlaps(&b.workspace) {
        return Some("workspace");
    }
    None
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv(h: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *h ^= b as u64;
        *h = h.wrapping_mul(FNV_PRIME);
    }
}

fn fnv_usize(h: &mut u64, v: usize) {
    fnv(h, &(v as u64).to_le_bytes());
}

/// The certificate digest: FNV-1a over every fact the proof depends on —
/// node footprints, value placements, arena bounds, waves and interference
/// edges. Any drift between what was certified and what is executed changes
/// the digest, so a schedule cannot be spliced onto a different plan.
pub fn schedule_digest(spec: &ConcSpec, waves: &[Vec<usize>], interference: &[(usize, usize)]) -> u64 {
    let mut h = FNV_OFFSET;
    fnv_usize(&mut h, spec.nodes.len());
    for node in &spec.nodes {
        fnv(&mut h, node.name.as_bytes());
        for &v in &node.inputs {
            fnv_usize(&mut h, v);
        }
        fnv_usize(&mut h, node.output);
        fnv_usize(&mut h, node.workspace.offset);
        fnv_usize(&mut h, node.workspace.bytes);
        if let Some(g) = &node.gemm {
            fnv_usize(&mut h, g.m);
            fnv_usize(&mut h, g.k);
            fnv_usize(&mut h, g.n);
            fnv(&mut h, g.algo.to_string().as_bytes());
        }
        for s in &node.partition {
            fnv_usize(&mut h, s.col0);
            fnv_usize(&mut h, s.cols);
        }
    }
    fnv_usize(&mut h, spec.values.len());
    for v in &spec.values {
        fnv_usize(&mut h, v.offset);
        fnv_usize(&mut h, v.bytes);
    }
    fnv_usize(&mut h, spec.output_value);
    fnv_usize(&mut h, spec.arena_bytes);
    fnv_usize(&mut h, spec.workspace_bytes);
    fnv_usize(&mut h, waves.len());
    for wave in waves {
        fnv_usize(&mut h, wave.len());
        for &n in wave {
            fnv_usize(&mut h, n);
        }
    }
    fnv_usize(&mut h, interference.len());
    for &(a, b) in interference {
        fnv_usize(&mut h, a);
        fnv_usize(&mut h, b);
    }
    h
}

/// Computes the certified schedule for a spec: the interference edge set
/// over all may-run-concurrently pairs, greedy dependency-level waves that
/// never co-schedule an interfering pair, and the certificate digest.
///
/// The result verifies by construction: `verify_conc(spec, &schedule)` is
/// the planner's debug gate.
pub fn build_schedule(spec: &ConcSpec) -> ScheduleSpec {
    let n = spec.nodes.len();
    let reach = reachability(&spec.nodes);
    let mut interference = Vec::new();
    for i in 0..n {
        for j in i + 1..n {
            if may_run_concurrently(&reach, i, j) && overlap_resource(spec, i, j).is_some() {
                interference.push((i, j));
            }
        }
    }
    // Level schedule: a node starts one wave after its last dependency, then
    // moves later until no wave-mate interferes with it.
    let mut wave_of = vec![0usize; n];
    for j in 0..n {
        let mut w = (0..j)
            .filter(|&i| reach[i][j])
            .map(|i| wave_of[i] + 1)
            .max()
            .unwrap_or(0);
        loop {
            let clash = (0..j).any(|i| {
                wave_of[i] == w
                    && (interference.contains(&(i, j)) || interference.contains(&(j, i)))
            });
            if !clash {
                break;
            }
            w += 1;
        }
        wave_of[j] = w;
    }
    let wave_count = wave_of.iter().copied().max().map_or(0, |m| m + 1);
    let mut waves: Vec<Vec<usize>> = vec![Vec::new(); wave_count];
    for (node, &w) in wave_of.iter().enumerate() {
        waves[w].push(node);
    }
    let certificate = schedule_digest(spec, &waves, &interference);
    ScheduleSpec { waves, interference, certificate }
}

/// Verifies a declared wave schedule against a spec, re-proving every claim
/// from scratch. Check order is fixed so each mutant of the negative catalog
/// is caught by its own witness before the certificate comparison runs:
/// schedule structure, reachability, footprints, partitions, interference
/// completeness, wave disjointness, wave-coarsened value liveness, and
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
                    detail: format!("node {} appears in two waves", spec.nodes[node].name),
                });
            }
            wave_of[node] = w;
        }
    }
    if let Some(missing) = wave_of.iter().position(|&w| w == usize::MAX) {
        return Err(ConcViolation::ScheduleBroken {
            detail: format!("node {} is not scheduled in any wave", spec.nodes[missing].name),
        });
    }
    for &(a, b) in &sched.interference {
        if a >= n || b >= n {
            return Err(ConcViolation::ScheduleBroken {
                detail: format!("interference edge ({a}, {b}) is out of range"),
            });
        }
    }

    // -- 2. Dependencies strictly increase across waves. ---------------------
    let reach = reachability(&spec.nodes);
    for j in 0..n {
        for i in 0..j {
            if reach[i][j] && wave_of[i] >= wave_of[j] {
                return Err(ConcViolation::ReachabilityError {
                    from: spec.nodes[i].name.clone(),
                    to: spec.nodes[j].name.clone(),
                    from_wave: wave_of[i],
                    to_wave: wave_of[j],
                });
            }
        }
    }

    // -- 3. Footprints stay inside their declared spans. ---------------------
    for (v, value) in spec.values.iter().enumerate() {
        if value.span().end() > spec.arena_bytes {
            return Err(ConcViolation::FootprintEscape {
                node: format!("v{v}"),
                what: "arena placement".into(),
                span: (value.offset, value.span().end()),
                bound: spec.arena_bytes,
            });
        }
    }
    for node in &spec.nodes {
        if node.workspace.end() > spec.workspace_bytes {
            return Err(ConcViolation::FootprintEscape {
                node: node.name.clone(),
                what: "workspace slice".into(),
                span: (node.workspace.offset, node.workspace.end()),
                bound: spec.workspace_bytes,
            });
        }
        if let Some(g) = &node.gemm {
            let required = g.required_workspace().total();
            if node.workspace.bytes < required {
                return Err(ConcViolation::FootprintEscape {
                    node: node.name.clone(),
                    what: "workspace requirement".into(),
                    span: (node.workspace.offset, node.workspace.offset + required),
                    bound: node.workspace.end(),
                });
            }
        }
    }

    // -- 4. Per-thread partitions: disjoint, covering, panel-bounded. --------
    // `check_spans` accepts the hardened empty spans and proves contiguity,
    // disjointness, NB alignment and coverage; on top of it the packed-panel
    // slices (prefix-carved per thread) must fit the certified panel budget,
    // and SDOT's NB-aligned interior boundaries guarantee the final padded
    // tile — the columns `[n, n.next_multiple_of(NB))` the kernel zero-fills
    // — belongs to exactly one thread.
    for node in &spec.nodes {
        let Some(g) = &node.gemm else { continue };
        if let Err(v) = check_spans(&node.partition, g.n) {
            return Err(ConcViolation::PartitionOverlap {
                node: node.name.clone(),
                detail: v.to_string(),
            });
        }
        let req = g.required_workspace();
        let certified = match g.algo {
            ArmAlgoKind::GemmWide | ArmAlgoKind::GemmNarrow => Some(req.panels),
            ArmAlgoKind::Winograd => Some(req.wg_panels),
            _ => None,
        };
        if let Some(certified) = certified {
            let klen = DEFAULT_KC.min(g.k);
            let nc_tiles = DEFAULT_NC / NB;
            let panel_total: usize = node
                .partition
                .iter()
                .map(|s| nc_tiles.min(s.cols.div_ceil(NB)) * NB * klen)
                .sum();
            if panel_total > certified {
                return Err(ConcViolation::PartitionOverlap {
                    node: node.name.clone(),
                    detail: format!(
                        "packed panels need {panel_total} bytes but {certified} are certified"
                    ),
                });
            }
        }
    }

    // -- 5. Every overlapping may-run-concurrently pair has an edge. ---------
    let has_edge = |i: usize, j: usize| {
        sched.interference.contains(&(i, j)) || sched.interference.contains(&(j, i))
    };
    for i in 0..n {
        for j in i + 1..n {
            if may_run_concurrently(&reach, i, j) {
                if let Some(resource) = overlap_resource(spec, i, j) {
                    if !has_edge(i, j) {
                        return Err(ConcViolation::InterferenceEdgeMissing {
                            a: spec.nodes[i].name.clone(),
                            b: spec.nodes[j].name.clone(),
                            resource,
                        });
                    }
                }
            }
        }
    }

    // -- 6. Wave-mates are interference-free. --------------------------------
    for wave in &sched.waves {
        for (x, &i) in wave.iter().enumerate() {
            for &j in wave.iter().skip(x + 1) {
                let (a, b) = (&spec.nodes[i], &spec.nodes[j]);
                let wa = spec.values[a.output].span();
                let wb = spec.values[b.output].span();
                if wa.overlaps(&wb) {
                    return Err(ConcViolation::ArenaInterference {
                        a: a.output,
                        a_span: (wa.offset, wa.end()),
                        b: b.output,
                        b_span: (wb.offset, wb.end()),
                        context: format!("both written in wave {}", wave_of[i]),
                    });
                }
                if a.workspace.overlaps(&b.workspace) {
                    return Err(ConcViolation::WorkspaceAliasing {
                        a: a.name.clone(),
                        a_span: (a.workspace.offset, a.workspace.end()),
                        b: b.name.clone(),
                        b_span: (b.workspace.offset, b.workspace.end()),
                    });
                }
                if has_edge(i, j) {
                    return Err(ConcViolation::ScheduleBroken {
                        detail: format!(
                            "interference edge between {} and {} violated within wave {}",
                            a.name, b.name, wave_of[i]
                        ),
                    });
                }
            }
        }
    }

    // -- 7. Value placements disjoint under wave-coarsened liveness. ---------
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
            .find(|(_, node)| node.output == v)
            .map(|(i, _)| wave_of[i])
            .unwrap_or(0);
        let mut last = def;
        for (i, node) in spec.nodes.iter().enumerate() {
            if node.inputs.contains(&v) {
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
                let (sa, sb) = (spec.values[a].span(), spec.values[b].span());
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

    // -- 8. The certificate digest matches a full recomputation. -------------
    let computed = schedule_digest(spec, &sched.waves, &sched.interference);
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
            .map(|wave| wave.iter().map(|&i| spec.nodes[i].name.clone()).collect())
            .collect(),
        incomparable_pairs: incomparable,
        interference_edges: sched.interference.len(),
        max_wave_width: sched.waves.iter().map(Vec::len).max().unwrap_or(0),
        arena_bytes: spec.arena_bytes,
        workspace_bytes: spec.workspace_bytes,
        certificate: sched.certificate,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A diamond: input -> a; a -> b; a -> c; (b, c) -> d. b and c are
    /// incomparable. Arena placements are always disjoint (both branch
    /// outputs feed the join, so they are co-live under *every* schedule);
    /// `disjoint` controls whether the branches' workspace slices collide —
    /// the overlap an interference edge can legitimately schedule around.
    fn diamond(disjoint: bool) -> ConcSpec {
        let ws_c = if disjoint { 64 } else { 32 };
        ConcSpec {
            nodes: vec![
                ConcNode {
                    name: "a".into(),
                    inputs: vec![0],
                    output: 1,
                    workspace: MemSpan { offset: 0, bytes: 64 },
                    gemm: None,
                    partition: Vec::new(),
                },
                ConcNode {
                    name: "b".into(),
                    inputs: vec![1],
                    output: 2,
                    workspace: MemSpan { offset: 0, bytes: 64 },
                    gemm: None,
                    partition: Vec::new(),
                },
                ConcNode {
                    name: "c".into(),
                    inputs: vec![1],
                    output: 3,
                    workspace: MemSpan { offset: ws_c, bytes: 64 },
                    gemm: None,
                    partition: Vec::new(),
                },
                ConcNode {
                    name: "d".into(),
                    inputs: vec![2, 3],
                    output: 4,
                    workspace: MemSpan::default(),
                    gemm: None,
                    partition: Vec::new(),
                },
            ],
            values: vec![
                ConcValue { offset: 0, bytes: 100 },
                ConcValue { offset: 100, bytes: 100 },
                ConcValue { offset: 200, bytes: 100 },
                ConcValue { offset: 300, bytes: 100 },
                ConcValue { offset: 0, bytes: 100 },
            ],
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
        assert_eq!(proof.interference_edges, 0);
        assert_eq!(sched.waves, vec![vec![0], vec![1, 2], vec![3]]);
    }

    #[test]
    fn overlapping_branches_get_an_interference_edge_and_separate_waves() {
        let spec = diamond(false);
        let sched = build_schedule(&spec);
        assert_eq!(sched.interference, vec![(1, 2)]);
        assert_eq!(sched.waves, vec![vec![0], vec![1], vec![2], vec![3]]);
        let proof = verify_conc(&spec, &sched).expect("edge-constrained schedule certifies");
        assert_eq!(proof.max_wave_width, 1);
        assert_eq!(proof.interference_edges, 1);
    }

    #[test]
    fn dropped_interference_edge_is_caught() {
        let spec = diamond(false);
        let mut sched = build_schedule(&spec);
        sched.interference.clear();
        sched.certificate = schedule_digest(&spec, &sched.waves, &sched.interference);
        assert!(matches!(
            verify_conc(&spec, &sched),
            Err(ConcViolation::InterferenceEdgeMissing { resource: "workspace", .. })
        ));
    }

    #[test]
    fn dependent_nodes_in_one_wave_are_a_reachability_error() {
        let spec = diamond(true);
        let mut sched = build_schedule(&spec);
        sched.waves = vec![vec![0, 1], vec![2], vec![3]];
        sched.certificate = schedule_digest(&spec, &sched.waves, &sched.interference);
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
    fn same_wave_workspace_aliasing_is_caught() {
        // The interference edge between b and c is declared, but the waves
        // co-schedule them anyway: the slice overlap is caught before the
        // edge-violation fallback.
        let spec = diamond(false);
        let mut sched = build_schedule(&spec);
        sched.waves = vec![vec![0], vec![1, 2], vec![3]];
        sched.certificate = schedule_digest(&spec, &sched.waves, &sched.interference);
        assert!(matches!(
            verify_conc(&spec, &sched),
            Err(ConcViolation::WorkspaceAliasing { .. })
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
            matches!(
                got,
                Err(ConcViolation::ArenaInterference { a: 2, b: 3, .. })
                    | Err(ConcViolation::InterferenceEdgeMissing { resource: "arena", .. })
            ),
            "got {got:?}"
        );
    }

    #[test]
    fn chains_certify_with_serial_waves() {
        // input -> a -> b: no incomparable pairs, one node per wave.
        let spec = ConcSpec {
            nodes: vec![
                ConcNode {
                    name: "a".into(),
                    inputs: vec![0],
                    output: 1,
                    workspace: MemSpan { offset: 0, bytes: 64 },
                    gemm: None,
                    partition: Vec::new(),
                },
                ConcNode {
                    name: "b".into(),
                    inputs: vec![1],
                    output: 2,
                    workspace: MemSpan { offset: 0, bytes: 64 },
                    gemm: None,
                    partition: Vec::new(),
                },
            ],
            values: vec![
                ConcValue { offset: 0, bytes: 10 },
                ConcValue { offset: 10, bytes: 10 },
                ConcValue { offset: 0, bytes: 10 },
            ],
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
