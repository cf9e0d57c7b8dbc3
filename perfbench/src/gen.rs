//! Seeded workloads: each tenant's program, base facts and an endless
//! stream of `park-serve/v1` request lines.
//!
//! Everything here is a pure function of the seed: the same seed yields a
//! byte-identical session. Generators keep a shadow of the base facts
//! they inserted or deleted, so base-fact deletions name facts that
//! exist, and no operation fails.

use park::workloads::{
    inventory_database, inventory_program, payroll_database, payroll_program, InventoryConfig,
    PayrollConfig,
};
use park_json::Json;
use std::collections::HashSet;
use std::fmt::Write as _;

/// The benchmark's workloads (names are cited by later changes).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// One incremental tenant on a 10k-node reachability/alarm graph:
    /// warm inserts, partial-stratum deletions, bails and queries.
    WarmMixed,
    /// Two uncertified tenants (payroll, inventory), one client each:
    /// every transaction is a cold fixpoint with conflicts and restarts.
    ColdConflict,
}

impl Workload {
    /// Every workload, in reporting order.
    pub const ALL: [Workload; 2] = [Workload::WarmMixed, Workload::ColdConflict];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::WarmMixed => "warm_mixed",
            Workload::ColdConflict => "cold_conflict",
        }
    }

    /// Look a workload up by name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Operations per tenant whose work counters are reported. A fixed
    /// count (not the timed phase's, which depends on speed) keeps the
    /// counters identical across runs with the same seed.
    pub fn counter_ops(self) -> usize {
        match self {
            Workload::WarmMixed => 400,
            Workload::ColdConflict => 120,
        }
    }

    /// The tenants of one session, driven by one closed-loop client.
    pub fn tenants(self, seed: u64) -> Vec<Tenant> {
        match self {
            Workload::WarmMixed => vec![warm_mixed(seed)],
            Workload::ColdConflict => vec![payroll(seed), inventory(seed)],
        }
    }
}

/// What an operation does, for latency bucketing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpKind {
    /// A `transact` whose update set has no deletion.
    Insert,
    /// A `transact` with at least one deletion.
    Delete,
    /// A `query`.
    Query,
}

impl OpKind {
    /// Every kind, in reporting order.
    pub const ALL: [OpKind; 3] = [OpKind::Insert, OpKind::Delete, OpKind::Query];

    /// The metric-name prefix of the kind.
    pub fn name(self) -> &'static str {
        match self {
            OpKind::Insert => "insert",
            OpKind::Delete => "delete",
            OpKind::Query => "query",
        }
    }
}

/// One request line and its kind.
#[derive(Debug, Clone)]
pub struct Op {
    /// The op's kind.
    pub kind: OpKind,
    /// The ndjson request line (no trailing newline).
    pub line: String,
}

/// One database of a session: how it is created and what it is sent.
pub struct Tenant {
    /// The database name.
    pub db: String,
    /// The rule program source.
    pub program: String,
    /// The base facts source.
    pub facts: String,
    /// Whether the tenant is created with `"incremental": true`.
    pub incremental: bool,
    /// Consecutive ops the client sends this tenant in each round.
    pub turns: usize,
    /// The tenant's operation stream.
    pub ops: OpStream,
}

impl Tenant {
    /// The `create` request (serve defaults apart from `incremental`).
    pub fn create_line(&self) -> String {
        let mut members = vec![
            ("op", Json::str("create")),
            ("db", Json::str(&self.db)),
            ("program", Json::str(&self.program)),
            ("facts", Json::str(&self.facts)),
        ];
        if self.incremental {
            members.push(("incremental", Json::Bool(true)));
        }
        Json::object(members).to_compact()
    }

    /// The `settle` request that seeds the tenant.
    pub fn settle_line(&self) -> String {
        Json::object([("op", Json::str("settle")), ("db", Json::str(&self.db))]).to_compact()
    }

    /// The `state` request read after the timed phase.
    pub fn state_line(&self) -> String {
        Json::object([("op", Json::str("state")), ("db", Json::str(&self.db))]).to_compact()
    }
}

/// SplitMix64: a small, fixed, seedable generator, so sessions do not
/// depend on any library's stream.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed` and a stream label (tenants draw from
    /// independent streams).
    pub fn new(seed: u64, stream: u64) -> Rng {
        Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F))
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A uniform value in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// True with probability `num / den`.
    pub fn chance(&mut self, num: usize, den: usize) -> bool {
        self.below(den) < num
    }
}

fn transact(db: &str, kind: OpKind, updates: &str) -> Op {
    Op {
        kind,
        line: Json::object([
            ("op", Json::str("transact")),
            ("db", Json::str(db)),
            ("updates", Json::str(updates)),
        ])
        .to_compact(),
    }
}

fn query(db: &str, src: &str) -> Op {
    Op {
        kind: OpKind::Query,
        line: Json::object([
            ("op", Json::str("query")),
            ("db", Json::str(db)),
            ("query", Json::str(src)),
        ])
        .to_compact(),
    }
}

/// Remove and return a random element (order is not preserved).
fn take_random<T>(rng: &mut Rng, items: &mut Vec<T>) -> T {
    let i = rng.below(items.len());
    items.swap_remove(i)
}

/// A tenant's endless operation generator.
pub enum OpStream {
    /// See [`warm_mixed`].
    WarmMixed(WarmMixedOps),
    /// See [`payroll`].
    Payroll(PayrollOps),
    /// See [`inventory`].
    Inventory(InventoryOps),
}

impl OpStream {
    /// The next operation.
    pub fn next_op(&mut self) -> Op {
        match self {
            OpStream::WarmMixed(g) => g.next_op(),
            OpStream::Payroll(g) => g.next_op(),
            OpStream::Inventory(g) => g.next_op(),
        }
    }
}

const WARM_NODES: usize = 10_000;
const WARM_SOURCES: usize = 5;
/// One deletion in this many removes a derived `alert` fact, which makes
/// the warm path bail to a cold run. Positional rather than random, so the
/// number of bails in a run depends only on the number of deletions; the
/// first comes early, inside the incremental-off reference prefix.
const BAIL_EVERY: u64 = 50;
const FIRST_BAIL: u64 = 10;

/// Names node `i`: base nodes are `n<i>`, fresh ones `f<i>`.
fn warm_node(i: usize) -> String {
    if i < WARM_NODES {
        format!("n{i}")
    } else {
        format!("f{}", i - WARM_NODES)
    }
}

/// `warm_mixed`: reachability from 5 sources over a 10k-node graph of
/// out-degree 1, with an alarm on every unreached sensor (stratified
/// negation, so the program is certified for warm transactions).
pub fn warm_mixed(seed: u64) -> Tenant {
    let mut rng = Rng::new(seed, 1);
    let mut facts = String::new();
    let mut edges = Vec::with_capacity(WARM_NODES);
    for i in 0..WARM_NODES {
        // Each node points at a random earlier one (node 0 at node 1): a
        // random recursive tree, whose paths have length ≈ ln(n) for every
        // seed. Uniform targets would give paths of random length ≈ √n,
        // and the reach set, and with it the cost of revalidating it,
        // would swing several-fold from seed to seed.
        let j = if i == 0 { 1 } else { rng.below(i) };
        writeln!(facts, "edge(n{i}, n{j}).").expect("write to String");
        edges.push((i, j));
    }
    for _ in 0..WARM_SOURCES {
        writeln!(facts, "source(n{}).", rng.below(WARM_NODES)).expect("write to String");
    }
    let sensors: Vec<usize> = (0..WARM_NODES).step_by(2).collect();
    for &s in &sensors {
        writeln!(facts, "sensor(n{s}).").expect("write to String");
    }
    Tenant {
        db: "alarms".into(),
        program: "init: source(X) -> +reach(X).\n\
                  walk: reach(X), edge(X, Y) -> +reach(Y).\n\
                  alarm: sensor(X), !reach(X) -> +alert(X).\n"
            .into(),
        facts,
        incremental: true,
        turns: 1,
        ops: OpStream::WarmMixed(WarmMixedOps {
            rng,
            edges,
            sensors,
            nodes: WARM_NODES,
            n: 0,
            deletions: 0,
        }),
    }
}

/// The `warm_mixed` op generator. Ops come in groups of four: an `edge`
/// insert, a `sensor` insert, a deletion and a query, so half the ops
/// insert one fact, a quarter delete one and a quarter query. Inserts use
/// fresh constants in every other group; a non-fresh sensor insert names
/// a node that already has a sensor, so it changes nothing. Three
/// deletions in four remove a sensor, the fourth an edge. Kinds follow a
/// fixed schedule and only the constants are random, so every seed gives
/// the same mix of paths through the engine in the same proportions.
pub struct WarmMixedOps {
    rng: Rng,
    edges: Vec<(usize, usize)>,
    sensors: Vec<usize>,
    nodes: usize,
    n: u64,
    deletions: u64,
}

impl WarmMixedOps {
    fn fresh(&mut self) -> usize {
        self.nodes += 1;
        self.nodes - 1
    }

    fn next_op(&mut self) -> Op {
        const DB: &str = "alarms";
        let (group, slot) = (self.n / 4, self.n % 4);
        self.n += 1;
        let fresh = group % 2 == 0;
        match slot {
            0 => {
                let from = self.rng.below(WARM_NODES);
                let to = if fresh {
                    self.fresh()
                } else {
                    self.rng.below(WARM_NODES)
                };
                self.edges.push((from, to));
                let u = format!("+edge({}, {}).", warm_node(from), warm_node(to));
                transact(DB, OpKind::Insert, &u)
            }
            1 => {
                let s = if fresh {
                    let s = self.fresh();
                    self.sensors.push(s);
                    s
                } else {
                    self.sensors[self.rng.below(self.sensors.len())]
                };
                transact(DB, OpKind::Insert, &format!("+sensor({}).", warm_node(s)))
            }
            2 => {
                self.deletions += 1;
                let u = if self.deletions % BAIL_EVERY == FIRST_BAIL {
                    // A base sensor node: unreached (so alerting) for all
                    // but a fraction of a percent of them.
                    format!("-alert(n{}).", 2 * self.rng.below(WARM_NODES / 2))
                } else if self.deletions.is_multiple_of(4) {
                    let (from, to) = take_random(&mut self.rng, &mut self.edges);
                    format!("-edge({}, {}).", warm_node(from), warm_node(to))
                } else {
                    let s = take_random(&mut self.rng, &mut self.sensors);
                    format!("-sensor({}).", warm_node(s))
                };
                transact(DB, OpKind::Delete, &u)
            }
            _ => {
                let k = self.rng.below(WARM_NODES);
                query(DB, &format!("?- alert(X), edge(X, n{k})."))
            }
        }
    }
}

/// In `cold_conflict` every `QUERY_EVERY`-th op is a query, so every
/// workload reports query latency on enough samples; the rest alternate
/// insert-only and deletion transactions.
const QUERY_EVERY: u64 = 4;

/// Whether op `n` (0-based) of a `cold_conflict` tenant is a query, else whether its
/// transaction is the insert-only one of the alternating pair.
fn cold_slot(n: u64) -> Option<bool> {
    if n % QUERY_EVERY == QUERY_EVERY - 1 {
        None
    } else {
        Some((n - n / QUERY_EVERY).is_multiple_of(2))
    }
}

/// Pull the first argument out of every `pred(arg, ...)` line of `facts`.
fn first_args(facts: &str, pred: &str) -> Vec<String> {
    let prefix = format!("{pred}(");
    facts
        .lines()
        .filter_map(|l| l.strip_prefix(&prefix))
        .map(|rest| {
            rest.split([',', ')'])
                .next()
                .expect("split yields at least one piece")
                .trim()
                .to_string()
        })
        .collect()
}

const PAYROLL_EMPLOYEES: usize = 500;

/// `cold_conflict`, tenant `payroll`: the HR program (event literals and
/// delete heads, so uncertified) over 500 employees.
pub fn payroll(seed: u64) -> Tenant {
    let (facts, _) = payroll_database(&PayrollConfig {
        employees: PAYROLL_EMPLOYEES,
        seed,
        ..PayrollConfig::default()
    });
    let active = first_args(&facts, "active");
    let eligible = first_args(&facts, "eligible").into_iter().collect();
    let flagged = first_args(&facts, "flagged").into_iter().collect();
    Tenant {
        db: "payroll".into(),
        program: payroll_program(),
        facts,
        incremental: false,
        // Two payroll ops per inventory op: with equal shares, each op
        // kind's median would sit on the boundary between the two
        // tenants' latency distributions and jump between them.
        turns: 2,
        ops: OpStream::Payroll(PayrollOps {
            rng: Rng::new(seed, 2),
            active,
            eligible,
            flagged,
            departed: Vec::new(),
            n: 0,
            hired: 0,
        }),
    }
}

/// The `payroll` op generator: hire 3 (some eligible and flagged, which
/// raises bonus conflicts), then deactivate 3 (the onleave → offb → audit
/// event cascade), with a join query by salary every 4th op. A
/// deactivation also removes what is left of the 3 employees the previous
/// one deactivated, so the payroll keeps its size and the cost of an op
/// does not grow with the number of ops a run completes.
pub struct PayrollOps {
    rng: Rng,
    active: Vec<String>,
    eligible: HashSet<String>,
    flagged: HashSet<String>,
    departed: Vec<String>,
    n: u64,
    hired: usize,
}

impl PayrollOps {
    fn next_op(&mut self) -> Op {
        const DB: &str = "payroll";
        let slot = cold_slot(self.n);
        self.n += 1;
        match slot {
            None => {
                // A join rather than a one-column scan: its evaluation,
                // not the pipeline's thread hand-offs, sets its latency,
                // and hand-offs slowed more than compute when the host
                // the benchmark was tuned on was busy.
                let salary = 30_000 + 100 * self.rng.below(500);
                query(
                    DB,
                    &format!("?- active(X), eligible(X), payroll(X, {salary})."),
                )
            }
            Some(true) => {
                let mut u = String::new();
                for _ in 0..3 {
                    let name = format!("h{}", self.hired);
                    self.hired += 1;
                    let salary = 30_000 + 100 * self.rng.below(500);
                    write!(
                        u,
                        "+emp({name}). +payroll({name}, {salary}). +active({name}). "
                    )
                    .expect("write to String");
                    if self.rng.chance(1, 2) {
                        write!(u, "+eligible({name}). ").expect("write to String");
                        self.eligible.insert(name.clone());
                    }
                    if self.rng.chance(1, 3) {
                        write!(u, "+flagged({name}). ").expect("write to String");
                        self.flagged.insert(name.clone());
                    }
                    self.active.push(name);
                }
                transact(DB, OpKind::Insert, u.trim_end())
            }
            Some(false) => {
                let mut u = String::new();
                for name in std::mem::take(&mut self.departed) {
                    // Offboarding left emp, offboard and audit. The policy
                    // is inertia, so `bonus` exists exactly when `grant`
                    // met no `deny`: eligible and not flagged.
                    write!(u, "-emp({name}). -offboard({name}). -audit({name}). ")
                        .expect("write to String");
                    let eligible = self.eligible.remove(&name);
                    let flagged = self.flagged.remove(&name);
                    if eligible {
                        write!(u, "-eligible({name}). ").expect("write to String");
                    }
                    if flagged {
                        write!(u, "-flagged({name}). ").expect("write to String");
                    }
                    if eligible && !flagged {
                        write!(u, "-bonus({name}). ").expect("write to String");
                    }
                }
                for _ in 0..3 {
                    let name = take_random(&mut self.rng, &mut self.active);
                    write!(u, "-active({name}). ").expect("write to String");
                    self.departed.push(name);
                }
                transact(DB, OpKind::Delete, u.trim_end())
            }
        }
    }
}

const INVENTORY_ITEMS: usize = 1250;

/// `cold_conflict`, tenant `inventory`: reorder rules with a
/// discontinuation conflict and event notifications over 1250 items.
pub fn inventory(seed: u64) -> Tenant {
    let facts = inventory_database(&InventoryConfig {
        items: INVENTORY_ITEMS,
        seed,
        ..InventoryConfig::default()
    });
    let low = first_args(&facts, "low");
    let mut is_low = vec![false; INVENTORY_ITEMS];
    for item in &low {
        is_low[item[1..].parse::<usize>().expect("item names are i<k>")] = true;
    }
    let not_low = (0..INVENTORY_ITEMS)
        .filter(|&i| !is_low[i])
        .map(|i| format!("i{i}"))
        .collect();
    Tenant {
        db: "inventory".into(),
        program: inventory_program(),
        facts,
        incremental: false,
        turns: 1,
        ops: OpStream::Inventory(InventoryOps {
            rng: Rng::new(seed, 3),
            low,
            not_low,
            n: 0,
        }),
    }
}

/// The `inventory` op generator: mark 3 items `+low`, then clear 3 `-low`,
/// with a query for one supplier's discontinued low items every 4th op.
pub struct InventoryOps {
    rng: Rng,
    low: Vec<String>,
    not_low: Vec<String>,
    n: u64,
}

impl InventoryOps {
    fn next_op(&mut self) -> Op {
        const DB: &str = "inventory";
        let slot = cold_slot(self.n);
        self.n += 1;
        let (kind, sign) = match slot {
            None => {
                let k = self.rng.below(InventoryConfig::default().suppliers);
                return query(
                    DB,
                    &format!("?- supplier(X, s{k}), discontinued(X), low(X)."),
                );
            }
            Some(true) => (OpKind::Insert, '+'),
            Some(false) => (OpKind::Delete, '-'),
        };
        let mut u = String::new();
        for _ in 0..3 {
            let (from, to) = match kind {
                OpKind::Insert => (&mut self.not_low, &mut self.low),
                _ => (&mut self.low, &mut self.not_low),
            };
            let item = take_random(&mut self.rng, from);
            write!(u, "{sign}low({item}). ").expect("write to String");
            to.push(item);
        }
        transact(DB, kind, u.trim_end())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl Tenant {
        fn take_ops(self, n: usize) -> Vec<Op> {
            let mut ops = self.ops;
            (0..n).map(|_| ops.next_op()).collect()
        }
    }

    /// The whole session the client sends for `tenant`: create, settle
    /// and then `ops` operations, one request per line.
    fn session_ndjson(tenant: Tenant, ops: usize) -> String {
        let mut out = format!("{}\n{}\n", tenant.create_line(), tenant.settle_line());
        for op in tenant.take_ops(ops) {
            out.push_str(&op.line);
            out.push('\n');
        }
        out
    }

    #[test]
    fn same_seed_gives_a_byte_identical_session() {
        for w in Workload::ALL {
            let a: Vec<String> = w
                .tenants(7)
                .into_iter()
                .map(|t| session_ndjson(t, 300))
                .collect();
            let b: Vec<String> = w
                .tenants(7)
                .into_iter()
                .map(|t| session_ndjson(t, 300))
                .collect();
            assert_eq!(a, b, "{}", w.name());
            let c: Vec<String> = w
                .tenants(8)
                .into_iter()
                .map(|t| session_ndjson(t, 300))
                .collect();
            assert_ne!(a, c, "{}: the seed must matter", w.name());
        }
    }

    #[test]
    fn every_request_line_is_a_valid_serve_request() {
        let defaults = park_serve::ServeOptions::default();
        for w in Workload::ALL {
            for t in w.tenants(1) {
                for line in session_ndjson(t, 100).lines() {
                    park_serve::protocol::parse_request(line, &defaults)
                        .unwrap_or_else(|e| panic!("{}: {line}: {e}", w.name()));
                }
            }
        }
    }

    #[test]
    fn op_mixes_have_the_stated_shape() {
        let count = |ops: &[Op], k: OpKind| ops.iter().filter(|o| o.kind == k).count();
        let warm = warm_mixed(3).take_ops(4000);
        assert_eq!(count(&warm, OpKind::Insert), 2000);
        assert_eq!(count(&warm, OpKind::Delete), 1000);
        assert_eq!(count(&warm, OpKind::Query), 1000);
        let bails = warm.iter().filter(|o| o.line.contains("-alert(")).count();
        assert_eq!(bails, 1000 / BAIL_EVERY as usize);
        let fresh_edges = warm
            .iter()
            .filter(|o| o.line.contains("+edge(") && o.line.contains(" f"))
            .count();
        assert_eq!(fresh_edges, 500, "fresh constants in half the groups");

        let cold = inventory(3).take_ops(8);
        let kinds: Vec<OpKind> = cold.iter().map(|o| o.kind).collect();
        use OpKind::*;
        assert_eq!(
            kinds,
            [Insert, Delete, Insert, Query, Delete, Insert, Delete, Query]
        );

        // Every deactivated employee is removed by the next deletion, so
        // the payroll keeps its size: hires and removals differ by the 3
        // employees the last deletion deactivated.
        let payroll = payroll(3).take_ops(400);
        let hires: usize = payroll
            .iter()
            .map(|o| o.line.matches("+emp(").count())
            .sum();
        let removals: usize = payroll
            .iter()
            .map(|o| o.line.matches("-emp(").count())
            .sum();
        assert_eq!((hires, removals), (450, 447));
    }

    #[test]
    fn base_data_has_the_stated_size() {
        let t = warm_mixed(5);
        assert_eq!(
            t.facts.lines().count(),
            WARM_NODES + WARM_SOURCES + WARM_NODES / 2
        );
    }
}
