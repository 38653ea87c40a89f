//! Dependency-DAG reconfiguration planner with certificate-checked
//! intermediate states.
//!
//! Changing a broker deployment — maintenance epochs swapping hubs in
//! and out ([`brokerset` incremental], PR 7), chaos recovery re-enlisting
//! defected brokers (PR 5), operator intent — is not atomic: activations,
//! deactivations and session migrations land one at a time, and a naive
//! sequence can pass through states where a customer vertex loses
//! coverage or a supervised session's dominating path loses its broker
//! mid-flight, even though both endpoint configurations are valid. This
//! module plans the transition instead:
//!
//! 1. **Diff** the current and target broker sets plus the affected
//!    sessions into atomic [`Step`]s (`ActivateBroker`,
//!    `DeactivateBroker`, `MigrateSession`).
//! 2. **Discover dependencies** by checking which candidate intermediate
//!    states stay invariant-safe: an edge A → B means "B's intermediate
//!    state is only safe after A". Three families of edges suffice for
//!    safety under *every* topological order (proved per-hop / per-vertex
//!    below): activate-before-migrate, migrate-before-deactivate, and
//!    cover-before-uncover.
//! 3. **Certify** the DAG: [`PlanCertificate`] re-derives acyclicity,
//!    step-set-equals-config-diff, the order-safety conditions and every
//!    canonical topological cut state through the [`Validate`] machinery.
//! 4. **Execute** antichains (Kahn layers) in order: deterministic step
//!    order, and a *modeled* makespan (critical-path cost units) against
//!    the sequential cost total — the planner's speedup claim is
//!    deterministic, never wall-clock.
//!
//! The safety argument, per constraint:
//!
//! - a vertex covered by both configurations but not by the surviving
//!   brokers keeps coverage at every cut because each deactivation that
//!   covers it transitively waits for an activation that covers it;
//! - a migrating session's new path is dominated when the migration runs
//!   because every hop either has a surviving-broker endpoint or the
//!   migration waits for an activated endpoint;
//! - its old path stays dominated until it migrates because every
//!   deactivated endpoint of an un-survivor-dominated hop waits for the
//!   migration.
//!
//! Since steps within an antichain touch disjoint state (distinct
//! brokers, distinct sessions), intra-layer order cannot matter, and the
//! per-layer cut states are exactly the states any execution passes
//! through.

use crate::stitch::{stitch_path, StitchedPath};
use crate::validate::{AuditReport, Validate};
use netgraph::{fnv1a_words, Graph, NodeId, NodeSet};
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

/// One atomic reconfiguration action.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub enum Step {
    /// Enlist a broker: it starts dominating edges immediately.
    ActivateBroker(NodeId),
    /// Retire a broker: it stops dominating edges immediately.
    DeactivateBroker(NodeId),
    /// Switch session `session` from its old stitched path (anchored at
    /// `from`) to its new one (anchored at `to`).
    MigrateSession {
        /// Index into the planned session list.
        session: usize,
        /// Canonical broker of the old path (`to` when the session had
        /// no old path and is being brought up).
        from: NodeId,
        /// Canonical broker of the new path.
        to: NodeId,
    },
}

impl fmt::Display for Step {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            Step::ActivateBroker(b) => write!(f, "activate({b})"),
            Step::DeactivateBroker(b) => write!(f, "deactivate({b})"),
            Step::MigrateSession { session, from, to } => {
                write!(f, "migrate(s{session}: {from} -> {to})")
            }
        }
    }
}

/// Typed rejection reasons for a candidate plan.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PlanError {
    /// A broker id is outside the graph's vertex range.
    BrokerOutOfRange {
        /// The offending broker.
        broker: NodeId,
    },
    /// A session endpoint is outside the graph's vertex range.
    SessionOutOfRange {
        /// Index of the offending pair.
        session: usize,
        /// The offending endpoint.
        endpoint: NodeId,
    },
    /// `deps` is not sized like `steps`.
    MismatchedDeps {
        /// Steps supplied.
        steps: usize,
        /// Dependency rows supplied.
        deps: usize,
    },
    /// A dependency references a step index that does not exist.
    DepOutOfRange {
        /// The depending step.
        step: usize,
        /// The out-of-range dependency.
        dep: usize,
    },
    /// The config diff requires this step but the plan lacks it.
    MissingStep {
        /// The absent step.
        step: Step,
    },
    /// The plan contains a step the config diff does not require.
    UnexpectedStep {
        /// The surplus step.
        step: Step,
    },
    /// The same step appears more than once.
    DuplicateStep {
        /// The repeated step.
        step: Step,
    },
    /// The dependency graph is not acyclic.
    Cycle {
        /// Steps left unschedulable when Kahn layering stalled.
        stuck: usize,
    },
    /// Some topological order of the plan reaches an invariant-violating
    /// intermediate state (a required dependency edge is missing).
    UnsafeOrder {
        /// The step whose scheduling is under-constrained.
        step: usize,
        /// The violated safety condition.
        invariant: &'static str,
    },
}

impl fmt::Display for PlanError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PlanError::BrokerOutOfRange { broker } => {
                write!(f, "broker {broker} outside the vertex range")
            }
            PlanError::SessionOutOfRange { session, endpoint } => {
                write!(
                    f,
                    "session {session} endpoint {endpoint} outside the vertex range"
                )
            }
            PlanError::MismatchedDeps { steps, deps } => {
                write!(f, "{deps} dependency rows for {steps} steps")
            }
            PlanError::DepOutOfRange { step, dep } => {
                write!(f, "step {step} depends on nonexistent step {dep}")
            }
            PlanError::MissingStep { step } => write!(f, "config diff requires missing {step}"),
            PlanError::UnexpectedStep { step } => {
                write!(f, "{step} is not part of the config diff")
            }
            PlanError::DuplicateStep { step } => write!(f, "{step} appears more than once"),
            PlanError::Cycle { stuck } => {
                write!(f, "dependency cycle: {stuck} steps unschedulable")
            }
            PlanError::UnsafeOrder { step, invariant } => {
                write!(f, "step {step} can run before its {invariant} prerequisite")
            }
        }
    }
}

impl std::error::Error for PlanError {}

/// How the planner disposed of one supervised session.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum SessionKind {
    /// No dominating path under the target configuration: the session is
    /// torn down by the transition and constrains nothing.
    Dropped,
    /// Identical path under both configurations: no step, but every
    /// intermediate state must keep the path dominated.
    Kept,
    /// The session switches paths at the given step index.
    Migrating {
        /// Index of the session's `MigrateSession` step.
        step: usize,
    },
}

/// One supervised session as the planner sees it.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct PlannedSession {
    /// Source endpoint.
    pub src: NodeId,
    /// Destination endpoint.
    pub dst: NodeId,
    /// Stitched path under the current configuration, if any.
    pub before: Option<StitchedPath>,
    /// Stitched path under the target configuration, if any.
    pub after: Option<StitchedPath>,
    /// Disposition.
    pub kind: SessionKind,
}

/// Headline plan shape for benchmark records and the CLI.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PlanSummary {
    /// Total atomic steps.
    pub steps: usize,
    /// Broker activations.
    pub activations: usize,
    /// Broker deactivations.
    pub deactivations: usize,
    /// Session migrations.
    pub migrations: usize,
    /// Sessions kept on an unchanged path.
    pub kept: usize,
    /// Sessions with no path under the target configuration.
    pub dropped: usize,
    /// Dependency edges in the DAG.
    pub edges: usize,
    /// Widest antichain (peak parallelism).
    pub width: usize,
    /// Number of Kahn layers (critical-path length in steps).
    pub depth: usize,
    /// Modeled parallel makespan: sum over layers of the costliest step.
    pub makespan_units: u64,
    /// Modeled sequential cost: sum of all step costs.
    pub sequential_units: u64,
    /// `sequential_units / makespan_units` (1.0 for the empty plan).
    pub speedup: f64,
}

/// Record of one executed step; the trace is the concatenation in
/// (layer, canonical step order).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct StepRecord {
    /// Step index into [`ReconfigPlan::steps`].
    pub step: u32,
    /// Modeled cost units.
    pub cost: u64,
    /// FNV-1a digest of the step's re-derived effect (neighborhood for
    /// broker flips, verified path for migrations).
    pub check: u64,
}

/// Result of executing a plan layer by layer.
#[derive(Debug, Clone)]
pub struct ExecTrace {
    /// Per-layer step records, in canonical order.
    pub layers: Vec<Vec<StepRecord>>,
    /// FNV-1a digest of the whole trace.
    pub checksum: u64,
    /// Modeled critical-path cost.
    pub makespan_units: u64,
    /// Modeled sequential cost.
    pub sequential_units: u64,
    /// Cut states validated (one per layer, plus the initial state).
    pub cuts_validated: usize,
    /// Audit of every cut state the execution passed through.
    pub cut_audit: AuditReport,
}

impl ExecTrace {
    /// Planned-vs-sequential makespan ratio (1.0 for the empty plan).
    pub fn speedup(&self) -> f64 {
        ratio(self.sequential_units, self.makespan_units)
    }
}

fn ratio(seq: u64, mk: u64) -> f64 {
    if mk == 0 {
        1.0
    } else {
        // Both operands are exact small integers; the division is the
        // only rounding step, so the ratio is deterministic.
        seq as f64 / mk as f64
    }
}

/// Does `set` dominate the hop `(u, v)`?
fn dominates_hop(set: &NodeSet, u: NodeId, v: NodeId) -> bool {
    set.contains(u) || set.contains(v)
}

/// Canonical broker of a stitched path: the first broker position, or
/// the path head for the degenerate single-vertex path.
fn anchor(p: &StitchedPath) -> NodeId {
    p.broker_positions.first().map_or(p.path[0], |&i| p.path[i])
}

/// A dependency-DAG reconfiguration plan between two broker
/// configurations over one (static) graph.
///
/// Build with [`ReconfigPlan::build`]; validate foreign or tampered step
/// lists with [`ReconfigPlan::from_parts`], which rejects cycles,
/// config-diff mismatches and under-constrained orders with typed
/// [`PlanError`]s.
#[derive(Debug, Clone, PartialEq)]
pub struct ReconfigPlan {
    n: usize,
    current: NodeSet,
    target: NodeSet,
    sessions: Vec<PlannedSession>,
    steps: Vec<Step>,
    /// `preds[i]` = steps that must complete before step `i`.
    preds: Vec<BTreeSet<usize>>,
    /// Kahn layers over `steps`, each ascending by step index.
    layers: Vec<Vec<usize>>,
}

impl ReconfigPlan {
    /// Plan the transition `current -> target` for the supervised
    /// session `pairs` on `g`.
    ///
    /// Sessions are stitched under both configurations; a session whose
    /// path changes gets a `MigrateSession` step, one with no target
    /// path is dropped (it constrains nothing). Construction is
    /// deterministic: steps are ordered activations-ascending, then
    /// migrations by session index, then deactivations-ascending.
    pub fn build(
        g: &Graph,
        current: &NodeSet,
        target: &NodeSet,
        pairs: &[(NodeId, NodeId)],
    ) -> Result<ReconfigPlan, PlanError> {
        let (sessions, steps, preds) = construct(g, current, target, pairs)?;
        let layers = layer_steps(steps.len(), &preds)?;
        let plan = ReconfigPlan {
            n: g.node_count(),
            current: current.clone(),
            target: target.clone(),
            sessions,
            steps,
            preds,
            layers,
        };
        plan.order_safety(g)?;
        Ok(plan)
    }

    /// Adopt a foreign `(steps, deps)` pair for the same transition,
    /// validating it instead of trusting it.
    ///
    /// Rejects plans whose step set diverges from the config diff
    /// ([`PlanError::MissingStep`] / [`PlanError::UnexpectedStep`] /
    /// [`PlanError::DuplicateStep`]), whose dependencies are cyclic or
    /// dangling, and — the interesting case — whose dependencies are too
    /// weak, i.e. some topological order reaches an invariant-violating
    /// intermediate state ([`PlanError::UnsafeOrder`]).
    pub fn from_parts(
        g: &Graph,
        current: &NodeSet,
        target: &NodeSet,
        pairs: &[(NodeId, NodeId)],
        steps: Vec<Step>,
        deps: Vec<BTreeSet<usize>>,
    ) -> Result<ReconfigPlan, PlanError> {
        let (ref_sessions, ref_steps, _) = construct(g, current, target, pairs)?;
        if deps.len() != steps.len() {
            return Err(PlanError::MismatchedDeps {
                steps: steps.len(),
                deps: deps.len(),
            });
        }
        for (i, row) in deps.iter().enumerate() {
            if let Some(&d) = row.iter().find(|&&d| d >= steps.len()) {
                return Err(PlanError::DepOutOfRange { step: i, dep: d });
            }
        }
        // Step multiset must equal the config diff exactly. Migration
        // steps are compared with the reference plan's canonical
        // anchors, so a forged from/to also reads as unexpected.
        let mut seen: BTreeSet<Step> = BTreeSet::new();
        for &s in &steps {
            if !seen.insert(s) {
                return Err(PlanError::DuplicateStep { step: s });
            }
            if !ref_steps.contains(&s) {
                return Err(PlanError::UnexpectedStep { step: s });
            }
        }
        if let Some(&missing) = ref_steps.iter().find(|s| !seen.contains(s)) {
            return Err(PlanError::MissingStep { step: missing });
        }
        // Session `Migrating` step indices must follow the caller's step
        // order, not the canonical one. The step sets already matched,
        // so each migrating session's step exists in `steps`.
        let mut sessions = ref_sessions;
        for (si, sess) in sessions.iter_mut().enumerate() {
            if let SessionKind::Migrating { step: canonical } = sess.kind {
                let idx = steps.iter().position(
                    |s| matches!(s, Step::MigrateSession { session, .. } if *session == si),
                );
                match idx {
                    Some(i) => sess.kind = SessionKind::Migrating { step: i },
                    None => {
                        return Err(PlanError::MissingStep {
                            step: ref_steps[canonical],
                        })
                    }
                }
            }
        }
        let layers = layer_steps(steps.len(), &deps)?;
        let plan = ReconfigPlan {
            n: g.node_count(),
            current: current.clone(),
            target: target.clone(),
            sessions,
            steps,
            preds: deps,
            layers,
        };
        plan.order_safety(g)?;
        Ok(plan)
    }

    /// Atomic steps, in the plan's step order.
    pub fn steps(&self) -> &[Step] {
        &self.steps
    }

    /// Dependency predecessors of step `i`.
    pub fn deps(&self, i: usize) -> &BTreeSet<usize> {
        &self.preds[i]
    }

    /// Total dependency edges.
    pub fn edge_count(&self) -> usize {
        self.preds.iter().map(BTreeSet::len).sum()
    }

    /// Kahn layers (antichains), each ascending by step index.
    pub fn layers(&self) -> &[Vec<usize>] {
        &self.layers
    }

    /// Widest antichain.
    pub fn width(&self) -> usize {
        self.layers.iter().map(Vec::len).max().unwrap_or(0)
    }

    /// Number of layers (critical path in steps).
    pub fn depth(&self) -> usize {
        self.layers.len()
    }

    /// The planned sessions, including dispositions and paths.
    pub fn sessions(&self) -> &[PlannedSession] {
        &self.sessions
    }

    /// Current (pre-transition) broker set.
    pub fn current(&self) -> &NodeSet {
        &self.current
    }

    /// Target (post-transition) broker set.
    pub fn target(&self) -> &NodeSet {
        &self.target
    }

    /// Modeled cost of one step: broker flips pay their degree (the
    /// edges whose domination changes), migrations pay the new path's
    /// hops (the state to install), everyone pays 1 for the control
    /// action itself.
    fn step_cost(&self, g: &Graph, step: &Step) -> u64 {
        match *step {
            Step::ActivateBroker(b) | Step::DeactivateBroker(b) => 1 + g.degree(b) as u64,
            Step::MigrateSession { session, .. } => {
                let hops = self.sessions[session]
                    .after
                    .as_ref()
                    .map_or(0, StitchedPath::hops);
                1 + hops as u64
            }
        }
    }

    /// `(sequential_units, makespan_units)`: total step cost vs the
    /// layered critical path (sum over layers of the costliest step).
    fn makespan_model(&self, g: &Graph) -> (u64, u64) {
        let mut seq = 0u64;
        let mut makespan = 0u64;
        for layer in &self.layers {
            let mut worst = 0u64;
            for &i in layer {
                let c = self.step_cost(g, &self.steps[i]);
                seq += c;
                worst = worst.max(c);
            }
            makespan += worst;
        }
        (seq, makespan)
    }

    /// Headline shape + makespan model.
    pub fn summary(&self, g: &Graph) -> PlanSummary {
        let (seq, makespan) = self.makespan_model(g);
        let mut acts = 0;
        let mut deacts = 0;
        let mut migs = 0;
        for s in &self.steps {
            match s {
                Step::ActivateBroker(_) => acts += 1,
                Step::DeactivateBroker(_) => deacts += 1,
                Step::MigrateSession { .. } => migs += 1,
            }
        }
        PlanSummary {
            steps: self.steps.len(),
            activations: acts,
            deactivations: deacts,
            migrations: migs,
            kept: self
                .sessions
                .iter()
                .filter(|s| s.kind == SessionKind::Kept)
                .count(),
            dropped: self
                .sessions
                .iter()
                .filter(|s| s.kind == SessionKind::Dropped)
                .count(),
            edges: self.edge_count(),
            width: self.width(),
            depth: self.depth(),
            makespan_units: makespan,
            sequential_units: seq,
            speedup: ratio(seq, makespan),
        }
    }

    /// Order-independent digest of the constructed plan (steps, deps,
    /// layers): the determinism tests pin this across rebuilds and CSR
    /// layouts.
    pub fn construction_checksum(&self) -> u64 {
        let mut words: Vec<u64> = Vec::new();
        for (i, s) in self.steps.iter().enumerate() {
            words.push(i as u64);
            words.push(step_code(s));
        }
        for row in &self.preds {
            words.push(u64::MAX);
            words.extend(row.iter().map(|&p| p as u64));
        }
        for layer in &self.layers {
            words.push(u64::MAX - 1);
            words.extend(layer.iter().map(|&i| i as u64));
        }
        fnv1a_words(words)
    }

    /// Wrap this plan for certificate-grade auditing against `g`.
    pub fn certificate<'a>(&'a self, g: &'a Graph) -> PlanCertificate<'a> {
        PlanCertificate::new(self, g)
    }

    /// Execute the plan's antichains (Kahn layers) in order.
    ///
    /// Each step re-derives its effect — broker flips digest their
    /// dominated neighborhood, migrations re-verify every hop of the
    /// installed path — into a [`StepRecord`]. After the run the
    /// canonical cut walk validates every intermediate state; the result
    /// lands in [`ExecTrace::cut_audit`].
    pub fn execute(&self, g: &Graph) -> ExecTrace {
        let records: Vec<Vec<StepRecord>> = self
            .layers
            .iter()
            .map(|layer| {
                layer
                    .iter()
                    .map(|&si| {
                        let step = &self.steps[si];
                        StepRecord {
                            step: si as u32,
                            cost: self.step_cost(g, step),
                            check: apply_step(g, &self.sessions, step),
                        }
                    })
                    .collect()
            })
            .collect();
        let (seq, makespan) = self.makespan_model(g);
        let mut words: Vec<u64> = Vec::new();
        for layer in &records {
            for r in layer {
                words.push(u64::from(r.step));
                words.push(r.cost);
                words.push(r.check);
            }
        }
        let cut_audit = self.walk_cuts(g);
        ExecTrace {
            cuts_validated: self.layers.len() + 1,
            layers: records,
            checksum: fnv1a_words(words),
            makespan_units: makespan,
            sequential_units: seq,
            cut_audit,
        }
    }

    /// Validate every canonical cut state: walk the layers, applying
    /// each antichain atomically (its steps commute — disjoint brokers,
    /// disjoint sessions), and check after each layer that
    ///
    /// - every vertex covered by both endpoint configurations is still
    ///   covered by the active set;
    /// - every live session's active path is still dominated;
    /// - the final active set equals the target exactly.
    fn walk_cuts(&self, g: &Graph) -> AuditReport {
        let mut rep = AuditReport::new("routing::ReconfigPlan::cuts");
        let n = self.n;
        if g.node_count() != n {
            rep.check("plan.cuts.graph-shape", false, || {
                format!("plan built for {n} vertices, graph has {}", g.node_count())
            });
            return rep;
        }
        // Incremental cover counts: cover[x] = active brokers in N[x].
        let mut cover = vec![0u32; n];
        let mut active = self.current.clone();
        for b in self.current.iter() {
            bump_cover(g, &mut cover, b, 1);
        }
        let both: Vec<bool> = (0..n)
            .map(|x| {
                let x = NodeId(x as u32);
                covered_by(g, &self.current, x) && covered_by(g, &self.target, x)
            })
            .collect();
        let mut migrated = vec![false; self.sessions.len()];
        self.check_cut(g, &mut rep, usize::MAX, &active, &cover, &both, &migrated);
        for (li, layer) in self.layers.iter().enumerate() {
            for &i in layer {
                match self.steps[i] {
                    Step::ActivateBroker(b) => {
                        active.insert(b);
                        bump_cover(g, &mut cover, b, 1);
                    }
                    Step::DeactivateBroker(b) => {
                        active.remove(b);
                        bump_cover(g, &mut cover, b, -1);
                    }
                    Step::MigrateSession { session, .. } => migrated[session] = true,
                }
            }
            self.check_cut(g, &mut rep, li, &active, &cover, &both, &migrated);
        }
        rep.check("plan.cuts.final-state", active == self.target, || {
            "executed plan does not land on the target configuration".into()
        });
        rep
    }

    /// One cut check; `layer == usize::MAX` marks the initial state.
    #[allow(clippy::too_many_arguments)]
    fn check_cut(
        &self,
        _g: &Graph,
        rep: &mut AuditReport,
        layer: usize,
        active: &NodeSet,
        cover: &[u32],
        both: &[bool],
        migrated: &[bool],
    ) {
        let at = || {
            if layer == usize::MAX {
                "initial state".to_string()
            } else {
                format!("after layer {layer}")
            }
        };
        let uncovered = (0..self.n).filter(|&x| both[x] && cover[x] == 0).count();
        rep.check("plan.cuts.coverage", uncovered == 0, || {
            format!("{uncovered} doubly-covered vertices uncovered {}", at())
        });
        let mut broken = 0usize;
        for (si, sess) in self.sessions.iter().enumerate() {
            let path = match sess.kind {
                SessionKind::Dropped => None,
                SessionKind::Kept => sess.before.as_ref(),
                SessionKind::Migrating { .. } => {
                    if migrated[si] {
                        sess.after.as_ref()
                    } else {
                        sess.before.as_ref()
                    }
                }
            };
            if let Some(p) = path {
                let ok = p.path.windows(2).all(|w| dominates_hop(active, w[0], w[1]));
                if !ok {
                    broken += 1;
                }
            }
        }
        rep.check("plan.cuts.sessions", broken == 0, || {
            format!("{broken} live sessions lost domination {}", at())
        });
    }

    /// Structural safety of the dependency set: for every topological
    /// order — not just the canonical one — no step can run before the
    /// steps its intermediate state needs. Uses transitive predecessor
    /// sets over the already-layered DAG.
    fn order_safety(&self, g: &Graph) -> Result<(), PlanError> {
        let survivors = {
            let mut s = self.current.clone();
            s.intersect_with(&self.target);
            s
        };
        let acts = step_index(&self.steps, true);
        let deacts = step_index(&self.steps, false);
        let reach = self.transitive_preds();
        let has_act_pred = |hop: (NodeId, NodeId), of: &BTreeSet<usize>| {
            [hop.0, hop.1]
                .iter()
                .any(|e| acts.get(&e.0).is_some_and(|&a| of.contains(&a)))
        };
        for sess in &self.sessions {
            match sess.kind {
                SessionKind::Dropped => {}
                SessionKind::Kept => {
                    // Every un-survivor-dominated hop: each deactivated
                    // endpoint must wait for an activated endpoint.
                    if let Some(p) = &sess.before {
                        for w in p.path.windows(2) {
                            if dominates_hop(&survivors, w[0], w[1]) {
                                continue;
                            }
                            for e in [w[0], w[1]] {
                                if let Some(&d) = deacts.get(&e.0) {
                                    if !has_act_pred((w[0], w[1]), &reach[d]) {
                                        return Err(PlanError::UnsafeOrder {
                                            step: d,
                                            invariant: "keep-dominated",
                                        });
                                    }
                                }
                            }
                        }
                    }
                }
                SessionKind::Migrating { step: m } => {
                    if let Some(p) = &sess.after {
                        for w in p.path.windows(2) {
                            if dominates_hop(&survivors, w[0], w[1])
                                || has_act_pred((w[0], w[1]), &reach[m])
                            {
                                continue;
                            }
                            return Err(PlanError::UnsafeOrder {
                                step: m,
                                invariant: "activate-before-migrate",
                            });
                        }
                    }
                    if let Some(p) = &sess.before {
                        for w in p.path.windows(2) {
                            if dominates_hop(&survivors, w[0], w[1]) {
                                continue;
                            }
                            for e in [w[0], w[1]] {
                                if let Some(&d) = deacts.get(&e.0) {
                                    if !reach[d].contains(&m) {
                                        return Err(PlanError::UnsafeOrder {
                                            step: d,
                                            invariant: "migrate-before-deactivate",
                                        });
                                    }
                                }
                            }
                        }
                    }
                }
            }
        }
        // Vertex coverage: a vertex covered by both configurations but
        // not by the survivors needs an activated coverer before any
        // deactivated coverer retires.
        for x in 0..self.n {
            let x = NodeId(x as u32);
            if !covered_by(g, &self.current, x)
                || !covered_by(g, &self.target, x)
                || covered_by(g, &survivors, x)
            {
                continue;
            }
            let act_coverers: Vec<usize> = closed_neighborhood(g, x)
                .filter_map(|y| acts.get(&y.0).copied())
                .collect();
            for y in closed_neighborhood(g, x) {
                if let Some(&d) = deacts.get(&y.0) {
                    if !act_coverers.iter().any(|a| reach[d].contains(a)) {
                        return Err(PlanError::UnsafeOrder {
                            step: d,
                            invariant: "cover-before-uncover",
                        });
                    }
                }
            }
        }
        Ok(())
    }

    /// Transitive predecessor closure, computed layer by layer (every
    /// predecessor lives in an earlier layer).
    fn transitive_preds(&self) -> Vec<BTreeSet<usize>> {
        let mut reach: Vec<BTreeSet<usize>> = vec![BTreeSet::new(); self.steps.len()];
        for layer in &self.layers {
            for &i in layer {
                let mut r = BTreeSet::new();
                for &p in &self.preds[i] {
                    r.insert(p);
                    r.extend(reach[p].iter().copied());
                }
                reach[i] = r;
            }
        }
        reach
    }
}

impl Validate for ReconfigPlan {
    /// Graph-free structural invariants: the layers partition the steps,
    /// every dependency points to an earlier layer, migration steps
    /// reference real sessions, and the configurations share one vertex
    /// capacity.
    fn audit(&self) -> AuditReport {
        let mut rep = AuditReport::new("routing::ReconfigPlan");
        rep.check(
            "plan.capacity",
            self.current.capacity() == self.n && self.target.capacity() == self.n,
            || "configurations sized for a different vertex count".into(),
        );
        let mut layer_of = vec![usize::MAX; self.steps.len()];
        let mut placed = 0usize;
        let mut dups = 0usize;
        for (li, layer) in self.layers.iter().enumerate() {
            for &i in layer {
                if i < layer_of.len() {
                    if layer_of[i] != usize::MAX {
                        dups += 1;
                    }
                    layer_of[i] = li;
                    placed += 1;
                }
            }
        }
        rep.check(
            "plan.layers.partition",
            dups == 0 && placed == self.steps.len() && layer_of.iter().all(|&l| l != usize::MAX),
            || {
                format!(
                    "{placed} placements, {dups} duplicates over {} steps",
                    self.steps.len()
                )
            },
        );
        let back_edges = self
            .preds
            .iter()
            .enumerate()
            .flat_map(|(i, row)| row.iter().map(move |&p| (i, p)))
            .filter(|&(i, p)| {
                p >= self.steps.len()
                    || i >= layer_of.len()
                    || layer_of[p] == usize::MAX
                    || layer_of[i] == usize::MAX
                    || layer_of[p] >= layer_of[i]
            })
            .count();
        rep.check("plan.layers.topological", back_edges == 0, || {
            format!("{back_edges} dependency edges do not point to an earlier layer")
        });
        let bad_sessions = self
            .steps
            .iter()
            .filter(|s| {
                matches!(s, Step::MigrateSession { session, .. }
                    if *session >= self.sessions.len())
            })
            .count();
        rep.check("plan.sessions.in-range", bad_sessions == 0, || {
            format!("{bad_sessions} migrations reference unknown sessions")
        });
        let mislinked = self
            .sessions
            .iter()
            .filter(|sess| match sess.kind {
                SessionKind::Migrating { step } => {
                    !matches!(self.steps.get(step), Some(Step::MigrateSession { .. }))
                }
                _ => false,
            })
            .count();
        rep.check("plan.sessions.step-links", mislinked == 0, || {
            format!("{mislinked} sessions point at non-migration steps")
        });
        rep
    }
}

/// A claim that `plan` is a safe reconfiguration of `graph`: acyclic,
/// step set equal to the config diff, order-safe under every topological
/// order, and invariant-preserving at every canonical cut.
#[derive(Debug)]
pub struct PlanCertificate<'a> {
    plan: &'a ReconfigPlan,
    g: &'a Graph,
}

impl<'a> PlanCertificate<'a> {
    /// Wrap a plan for auditing against the graph it was built on.
    pub fn new(plan: &'a ReconfigPlan, g: &'a Graph) -> Self {
        PlanCertificate { plan, g }
    }
}

impl Validate for PlanCertificate<'_> {
    /// Re-derive everything independently of construction:
    ///
    /// 1. the structural audit ([`ReconfigPlan::audit`]) — layers
    ///    partition the steps and respect the dependencies (acyclicity);
    /// 2. the step set equals the config diff re-derived from the
    ///    current/target sets and re-stitched sessions;
    /// 3. stored session paths really are dominated stitches of their
    ///    configuration (hop edges exist, endpoints match);
    /// 4. the order-safety conditions hold, so *every* topological
    ///    order is safe;
    /// 5. every canonical cut state passes the coverage + session
    ///    invariants (`ReconfigPlan::walk_cuts`).
    fn audit(&self) -> AuditReport {
        let mut rep = AuditReport::new("routing::PlanCertificate");
        rep.absorb(self.plan.audit());
        let g = self.g;
        let plan = self.plan;
        rep.check("plan.cert.graph-shape", g.node_count() == plan.n, || {
            format!(
                "plan built for {} vertices, graph has {}",
                plan.n,
                g.node_count()
            )
        });
        if g.node_count() != plan.n {
            return rep;
        }

        // 2. Step set == config diff, re-derived from scratch.
        match construct(
            g,
            &plan.current,
            &plan.target,
            &plan
                .sessions
                .iter()
                .map(|s| (s.src, s.dst))
                .collect::<Vec<_>>(),
        ) {
            Ok((_, ref_steps, _)) => {
                let have: BTreeSet<Step> = plan.steps.iter().copied().collect();
                let want: BTreeSet<Step> = ref_steps.iter().copied().collect();
                rep.check(
                    "plan.cert.step-diff",
                    have == want && plan.steps.len() == ref_steps.len(),
                    || {
                        let missing = want.difference(&have).count();
                        let surplus = have.difference(&want).count();
                        format!("{missing} required steps missing, {surplus} surplus")
                    },
                );
            }
            Err(e) => rep.check("plan.cert.step-diff", false, || {
                format!("config diff underivable: {e}")
            }),
        }

        // 3. Stored paths are genuine dominated walks.
        let mut bad_paths = 0usize;
        for sess in &plan.sessions {
            for (p, set) in [
                (sess.before.as_ref(), &plan.current),
                (sess.after.as_ref(), &plan.target),
            ] {
                let Some(p) = p else { continue };
                let endpoints_ok =
                    p.path.first() == Some(&sess.src) && p.path.last() == Some(&sess.dst);
                let edges_ok = p.path.windows(2).all(|w| g.has_edge(w[0], w[1]));
                let dominated = p.path.windows(2).all(|w| dominates_hop(set, w[0], w[1]));
                if !(endpoints_ok && edges_ok && dominated) {
                    bad_paths += 1;
                }
            }
        }
        rep.check("plan.cert.session-paths", bad_paths == 0, || {
            format!("{bad_paths} stored session paths fail re-verification")
        });

        // 4. Order safety for every topological order.
        match plan.order_safety(g) {
            Ok(()) => rep.check("plan.cert.order-safe", true, String::new),
            Err(e) => rep.check("plan.cert.order-safe", false, || e.to_string()),
        }

        // 5. Every canonical cut state.
        rep.absorb(plan.walk_cuts(g));
        rep
    }
}

/// `x` or a neighbor of `x`, in ascending-id-after-x order.
fn closed_neighborhood<'g>(g: &'g Graph, x: NodeId) -> impl Iterator<Item = NodeId> + 'g {
    std::iter::once(x).chain(g.neighbors(x).iter().copied())
}

/// Is `x` in the closed neighborhood of `set`?
fn covered_by(g: &Graph, set: &NodeSet, x: NodeId) -> bool {
    set.contains(x) || g.neighbors(x).iter().any(|&y| set.contains(y))
}

/// Adjust cover counts for (de)activating broker `b`.
fn bump_cover(g: &Graph, cover: &mut [u32], b: NodeId, delta: i32) {
    for y in closed_neighborhood(g, b) {
        let c = &mut cover[y.index()];
        if delta > 0 {
            *c += 1;
        } else {
            *c = c.saturating_sub(1);
        }
    }
}

/// Map broker id -> step index for activations (`acts = true`) or
/// deactivations.
fn step_index(steps: &[Step], acts: bool) -> BTreeMap<u32, usize> {
    let mut m = BTreeMap::new();
    for (i, s) in steps.iter().enumerate() {
        match (acts, s) {
            (true, Step::ActivateBroker(b)) | (false, Step::DeactivateBroker(b)) => {
                m.insert(b.0, i);
            }
            _ => {}
        }
    }
    m
}

fn step_code(s: &Step) -> u64 {
    match *s {
        Step::ActivateBroker(b) => u64::from(b.0) << 2,
        Step::DeactivateBroker(b) => (u64::from(b.0) << 2) | 1,
        Step::MigrateSession { session, from, to } => {
            fnv1a_words([2, session as u64, u64::from(from.0), u64::from(to.0)])
        }
    }
}

/// Re-derive one step's effect during execution: broker flips digest
/// their (re-read) dominated neighborhood, migrations re-verify every
/// hop of the path they install.
fn apply_step(g: &Graph, sessions: &[PlannedSession], step: &Step) -> u64 {
    match *step {
        Step::ActivateBroker(b) | Step::DeactivateBroker(b) => {
            let mut words: Vec<u64> = vec![step_code(step)];
            words.extend(g.neighbors(b).iter().map(|y| u64::from(y.0)));
            fnv1a_words(words)
        }
        Step::MigrateSession { session, .. } => {
            let mut words: Vec<u64> = vec![step_code(step)];
            if let Some(p) = &sessions[session].after {
                for w in p.path.windows(2) {
                    words.push(u64::from(g.has_edge(w[0], w[1])));
                }
                words.extend(p.path.iter().map(|v| u64::from(v.0)));
            }
            fnv1a_words(words)
        }
    }
}

/// Shared construction: stitch sessions under both configurations,
/// derive the canonical step list and the dependency edges.
#[allow(clippy::type_complexity)]
fn construct(
    g: &Graph,
    current: &NodeSet,
    target: &NodeSet,
    pairs: &[(NodeId, NodeId)],
) -> Result<(Vec<PlannedSession>, Vec<Step>, Vec<BTreeSet<usize>>), PlanError> {
    let n = g.node_count();
    for set in [current, target] {
        if let Some(b) = set.iter().find(|b| b.index() >= n) {
            return Err(PlanError::BrokerOutOfRange { broker: b });
        }
    }
    for (i, &(s, t)) in pairs.iter().enumerate() {
        for e in [s, t] {
            if e.index() >= n {
                return Err(PlanError::SessionOutOfRange {
                    session: i,
                    endpoint: e,
                });
            }
        }
    }

    let mut survivors = current.clone();
    survivors.intersect_with(target);
    let mut acts: Vec<NodeId> = target.iter().filter(|&b| !current.contains(b)).collect();
    acts.sort_unstable();
    let mut deacts: Vec<NodeId> = current.iter().filter(|&b| !target.contains(b)).collect();
    deacts.sort_unstable();

    // Stitch every session under both configurations.
    let mut sessions: Vec<PlannedSession> = pairs
        .iter()
        .map(|&(src, dst)| {
            let before = stitch_path(g, current, src, dst);
            let after = stitch_path(g, target, src, dst);
            let kind = match (&before, &after) {
                (_, None) => SessionKind::Dropped,
                (Some(b), Some(a)) if b.path == a.path => SessionKind::Kept,
                // Step index patched below once migrations are laid out.
                _ => SessionKind::Migrating { step: usize::MAX },
            };
            PlannedSession {
                src,
                dst,
                before,
                after,
                kind,
            }
        })
        .collect();

    // Canonical step order: activations ascending, migrations by session
    // index, deactivations ascending.
    let mut steps: Vec<Step> = acts.iter().map(|&b| Step::ActivateBroker(b)).collect();
    for (si, sess) in sessions.iter_mut().enumerate() {
        if let SessionKind::Migrating { .. } = sess.kind {
            let to = sess.after.as_ref().map(anchor);
            let from = sess.before.as_ref().map(anchor).or(to);
            if let (Some(from), Some(to)) = (from, to) {
                sess.kind = SessionKind::Migrating { step: steps.len() };
                steps.push(Step::MigrateSession {
                    session: si,
                    from,
                    to,
                });
            }
        }
    }
    steps.extend(deacts.iter().map(|&b| Step::DeactivateBroker(b)));

    let act_of = step_index(&steps, true);
    let deact_of = step_index(&steps, false);
    let mut preds: Vec<BTreeSet<usize>> = vec![BTreeSet::new(); steps.len()];

    // Dependency discovery: for each constraint, check whether the
    // candidate intermediate state (the constrained step running with
    // only the survivors of the relevant hop/vertex active) is safe; if
    // not, add the edge that makes it wait.
    for sess in &sessions {
        match sess.kind {
            SessionKind::Dropped => {}
            SessionKind::Kept => {
                if let Some(p) = &sess.before {
                    for w in p.path.windows(2) {
                        if dominates_hop(&survivors, w[0], w[1]) {
                            continue;
                        }
                        // Hop dominated only by transient brokers: every
                        // retiring endpoint waits for the (smallest)
                        // arriving endpoint.
                        let a = [w[0], w[1]]
                            .iter()
                            .filter_map(|e| act_of.get(&e.0).copied())
                            .min();
                        for e in [w[0], w[1]] {
                            if let (Some(&d), Some(a)) = (deact_of.get(&e.0), a) {
                                preds[d].insert(a);
                            }
                        }
                    }
                }
            }
            SessionKind::Migrating { step: m } => {
                if let Some(p) = &sess.after {
                    for w in p.path.windows(2) {
                        if dominates_hop(&survivors, w[0], w[1]) {
                            continue;
                        }
                        if let Some(a) = [w[0], w[1]]
                            .iter()
                            .filter_map(|e| act_of.get(&e.0).copied())
                            .min()
                        {
                            preds[m].insert(a);
                        }
                    }
                }
                if let Some(p) = &sess.before {
                    for w in p.path.windows(2) {
                        if dominates_hop(&survivors, w[0], w[1]) {
                            continue;
                        }
                        for e in [w[0], w[1]] {
                            if let Some(&d) = deact_of.get(&e.0) {
                                preds[d].insert(m);
                            }
                        }
                    }
                }
            }
        }
    }
    // Vertex coverage: doubly-covered vertices that lose all surviving
    // coverers tie each retiring coverer to the smallest arriving one.
    for x in 0..n {
        let x = NodeId(x as u32);
        if !covered_by(g, current, x) || !covered_by(g, target, x) || covered_by(g, &survivors, x) {
            continue;
        }
        let a = closed_neighborhood(g, x)
            .filter_map(|y| act_of.get(&y.0).copied())
            .min();
        for y in closed_neighborhood(g, x) {
            if let (Some(&d), Some(a)) = (deact_of.get(&y.0), a) {
                preds[d].insert(a);
            }
        }
    }

    Ok((sessions, steps, preds))
}

/// Kahn layering over the dependency DAG. Each layer collects every
/// unplaced zero-indegree step in ascending index order — the canonical
/// antichain decomposition. Stalling before all steps are placed means a
/// cycle.
fn layer_steps(count: usize, preds: &[BTreeSet<usize>]) -> Result<Vec<Vec<usize>>, PlanError> {
    let mut indeg: Vec<usize> = preds.iter().map(BTreeSet::len).collect();
    let mut succs: Vec<Vec<usize>> = vec![Vec::new(); count];
    for (i, row) in preds.iter().enumerate() {
        for &p in row {
            succs[p].push(i);
        }
    }
    let mut placed = vec![false; count];
    let mut layers: Vec<Vec<usize>> = Vec::new();
    let mut remaining = count;
    while remaining > 0 {
        let layer: Vec<usize> = (0..count)
            .filter(|&i| !placed[i] && indeg[i] == 0)
            .collect();
        if layer.is_empty() {
            return Err(PlanError::Cycle { stuck: remaining });
        }
        for &i in &layer {
            placed[i] = true;
            for &s in &succs[i] {
                indeg[s] -= 1;
            }
        }
        remaining -= layer.len();
        layers.push(layer);
    }
    Ok(layers)
}

#[cfg(test)]
mod tests {
    use super::*;
    use netgraph::graph::from_edges;

    /// Path graph 0-1-2-3-4-5 plus a chord 0-5.
    fn line6() -> Graph {
        from_edges(
            6,
            [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (0, 5)].map(|(a, b)| (NodeId(a), NodeId(b))),
        )
    }

    fn set(n: usize, ids: &[u32]) -> NodeSet {
        NodeSet::from_iter_with_capacity(n, ids.iter().map(|&i| NodeId(i)))
    }

    #[test]
    fn empty_diff_plans_no_steps() {
        let g = line6();
        let b = set(6, &[1, 4]);
        let plan = ReconfigPlan::build(&g, &b, &b, &[(NodeId(0), NodeId(2))]).expect("plan");
        assert!(plan.steps().is_empty());
        assert_eq!(plan.depth(), 0);
        let rep = plan.certificate(&g).audit();
        assert!(rep.is_ok(), "{rep}");
        let trace = plan.execute(&g);
        assert!(trace.cut_audit.is_ok(), "{}", trace.cut_audit);
        assert!((trace.speedup() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn swap_produces_ordered_steps_and_safe_cuts() {
        // Swap broker 1 for broker 2: session 0->3 must migrate after 2
        // activates and before 1 deactivates.
        let g = line6();
        let cur = set(6, &[1, 4]);
        let tgt = set(6, &[2, 4]);
        let plan = ReconfigPlan::build(&g, &cur, &tgt, &[(NodeId(0), NodeId(3))]).expect("plan");
        let s = plan.summary(&g);
        assert_eq!(s.activations, 1);
        assert_eq!(s.deactivations, 1);
        assert!(s.migrations <= 1);
        let rep = plan.certificate(&g).audit();
        assert!(rep.is_ok(), "{rep}");
        // Depth >= 2: the deactivation cannot share a layer with the
        // activation it waits on (directly or via the migration).
        assert!(plan.depth() >= 2, "layers: {:?}", plan.layers());
    }

    #[test]
    fn tampered_plans_get_typed_errors() {
        let g = line6();
        let cur = set(6, &[1, 4]);
        let tgt = set(6, &[2, 4]);
        let pairs = [(NodeId(0), NodeId(3))];
        let plan = ReconfigPlan::build(&g, &cur, &tgt, &pairs).expect("plan");
        let steps = plan.steps().to_vec();
        let deps: Vec<BTreeSet<usize>> = (0..steps.len()).map(|i| plan.deps(i).clone()).collect();

        // Cycle: make step 0 depend on the last step.
        let mut cyc = deps.clone();
        cyc[0].insert(steps.len() - 1);
        let err = ReconfigPlan::from_parts(&g, &cur, &tgt, &pairs, steps.clone(), cyc)
            .expect_err("cycle accepted");
        assert!(matches!(err, PlanError::Cycle { .. }), "{err:?}");

        // Missing step.
        let mut short = steps.clone();
        let dropped = short.pop().expect("nonempty");
        let err = ReconfigPlan::from_parts(
            &g,
            &cur,
            &tgt,
            &pairs,
            short,
            deps[..steps.len() - 1].to_vec(),
        )
        .expect_err("missing step accepted");
        assert_eq!(err, PlanError::MissingStep { step: dropped });

        // Invariant-violating order: drop every dependency.
        let free: Vec<BTreeSet<usize>> = vec![BTreeSet::new(); steps.len()];
        let err = ReconfigPlan::from_parts(&g, &cur, &tgt, &pairs, steps, free)
            .expect_err("unsafe order accepted");
        assert!(matches!(err, PlanError::UnsafeOrder { .. }), "{err:?}");
    }

    #[test]
    fn out_of_range_inputs_rejected() {
        let g = line6();
        let bad = set(8, &[7]);
        let ok = set(6, &[1]);
        assert!(matches!(
            ReconfigPlan::build(&g, &bad, &ok, &[]),
            Err(PlanError::BrokerOutOfRange { .. })
        ));
        assert!(matches!(
            ReconfigPlan::build(&g, &ok, &ok, &[(NodeId(0), NodeId(9))]),
            Err(PlanError::SessionOutOfRange { .. })
        ));
    }
}
