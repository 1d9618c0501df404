//! Workload definitions and seeded input generation.
//!
//! Everything the server will see is generated here, from the seed,
//! before any server starts: the fabric snapshot, one trace artifact per
//! epoch, the query pool and its send schedule, and the standing-query
//! subscriptions. The server receives only these artifact bytes.

use dna_io::{write_query, write_snapshot, write_trace, Query, QueryKind, SubscriptionSpec, Trace};
use net_model::{ChangeSet, Flow, Snapshot};
use topo_gen::{fat_tree, Routing, ScenarioGen, ScenarioKind, ALL_SCENARIOS};

/// The session name every workload uses on the server (and in the
/// in-process reference, whose replies must match byte for byte).
pub const SESSION: &str = "fabric";

/// Queries sent after the load window, open-loop at `PROBE_QUERY_RATE`,
/// by workloads whose load has no query stream (their `query_*` metrics
/// come from these).
pub const PROBE_QUERIES: usize = 5_000;
pub const PROBE_QUERY_RATE: f64 = 1000.0;
/// Standing queries subscribed for the notify probe by workloads whose
/// load has no subscriptions.
pub const PROBE_SUBS: usize = 200;
/// Distinct queries in a workload's query pool.
pub const DISTINCT_QUERIES: usize = 512;
/// Closed-loop epochs generated per second of load window: far above
/// today's capacity, so a faster engine still finds epochs to ingest.
const CLOSED_POOL_PER_SECOND: usize = 100;

/// How a workload's ingest connection sends epochs.
#[derive(Clone, Copy, Debug)]
pub enum Ingest {
    /// The next epoch goes out when the previous one is acknowledged.
    Closed,
    /// Epoch `i` is due at `start + i / eps`, whatever the server does.
    Open { eps: f64 },
}

/// One workload: a fabric size and a traffic mix.
#[derive(Debug)]
pub struct Workload {
    pub name: &'static str,
    /// Fat-tree arity (eBGP fabric).
    pub k: u32,
    pub ingest: Ingest,
    /// Open-loop query rate on the second connection during the load
    /// window; `None` when the load window sends no queries.
    pub query_rate: Option<f64>,
    /// Standing queries subscribed on the second connection before the
    /// load window (0: none during load).
    pub watch_subs: usize,
    /// `--checkpoint-every` cadence (with a checkpoint directory).
    pub checkpoint_every: Option<usize>,
    /// Server start-ups per run; `setup_s` is their median.
    pub setups: usize,
    /// Closed-loop epochs of the notify probe run after the load window
    /// by workloads without subscriptions in their load.
    pub probe_epochs: usize,
}

impl Workload {
    pub fn fabric_devices(&self) -> usize {
        let k = self.k as usize;
        k * k / 4 + k * k
    }
}

pub const WORKLOADS: &[Workload] = &[
    Workload {
        name: "churn-k10",
        k: 10,
        ingest: Ingest::Closed,
        query_rate: None,
        watch_subs: 0,
        checkpoint_every: Some(10),
        setups: 3,
        probe_epochs: 72,
    },
    Workload {
        name: "read-mix-k8",
        k: 8,
        ingest: Ingest::Open { eps: 10.0 },
        query_rate: Some(1000.0),
        watch_subs: 0,
        checkpoint_every: None,
        setups: 5,
        probe_epochs: 120,
    },
    Workload {
        name: "watch-k6",
        k: 6,
        ingest: Ingest::Open { eps: 20.0 },
        query_rate: None,
        watch_subs: 300,
        checkpoint_every: None,
        setups: 9,
        probe_epochs: 0,
    },
];

pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// SplitMix64: a tiny seeded generator for the benchmark's own choices
/// (query and subscription mixes). Scenario epochs come from
/// `topo_gen::ScenarioGen`.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed ^ 0x6a09_e667_f3bc_c909)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    pub fn pick<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        &items[self.below(items.len())]
    }
}

/// One query of the pool, with its wire bytes and the reply kind it
/// must get (`ok <kind>`).
pub struct PoolQuery {
    pub kind: QueryKind,
    pub text: String,
    pub expect: &'static str,
}

/// One standing query, with its wire bytes.
pub struct Sub {
    pub spec: SubscriptionSpec,
    pub text: String,
}

/// All inputs of one run.
pub struct Inputs {
    pub snapshot: Snapshot,
    pub snapshot_text: String,
    /// Every epoch's own trace artifact, in send order: first the load
    /// window's epochs, then `probe_epochs` for the notify probe.
    pub epoch_texts: Vec<String>,
    /// Epochs available to the load window.
    pub load_epochs: usize,
    pub queries: Vec<PoolQuery>,
    /// Pool indices in send order: the load window's open-loop stream
    /// (read-mix) or the closed-loop probe (the others).
    pub schedule: Vec<usize>,
    /// Standing queries: subscribed before the load window when the
    /// workload watches, else for the notify probe.
    pub subs: Vec<Sub>,
}

/// The scenario kinds the workloads draw from: every kind but
/// `LocalPrefChange`. Repeated local-preference rewrites eventually give
/// the eBGP fabric a policy with no stable routing (at k=6, seed 301,
/// epoch 415 of the cyclic sequence below: "routing did not converge"
/// after 26 s), and every later epoch then crawls, so a workload with
/// them has operations that fail.
fn scenario_kinds() -> Vec<ScenarioKind> {
    ALL_SCENARIOS
        .iter()
        .copied()
        .filter(|k| *k != ScenarioKind::LocalPrefChange)
        .collect()
}

/// `n` serially valid change epochs from a seeded `ScenarioGen`, one
/// scenario kind per epoch in the fixed cyclic order of
/// [`scenario_kinds`] (a kind with no opportunity yields to the next).
/// Every seed gets the same kind mix, each failure is followed by its
/// recovery, and the seed picks what each change touches; a uniformly
/// random kind order would let one seed's mix, and its drifted state,
/// differ from another's by more than the effects the benchmark is
/// meant to show.
fn scenario_epochs(snapshot: &Snapshot, seed: u64, n: usize) -> Vec<(ScenarioKind, ChangeSet)> {
    let kinds = scenario_kinds();
    let mut gen = ScenarioGen::new(seed);
    let mut cur = snapshot.clone();
    let mut out = Vec::with_capacity(n);
    for i in 0..n {
        let next = (0..kinds.len()).find_map(|j| {
            let kind = kinds[(i + j) % kinds.len()];
            let cs = gen.generate(&cur, kind)?;
            let after = cs.apply(&cur).ok()?;
            Some((kind, cs, after))
        });
        let (kind, cs, after) = next.expect("an eBGP fat-tree always has a scenario opportunity");
        cur = after;
        out.push((kind, cs));
    }
    out
}

/// Generates a run's inputs from `seed`.
pub fn generate(w: &Workload, seed: u64, seconds: u64) -> Inputs {
    let snapshot = fat_tree(w.k, Routing::Ebgp).snapshot;
    let load_epochs = match w.ingest {
        Ingest::Closed => CLOSED_POOL_PER_SECOND * seconds as usize,
        Ingest::Open { eps } => (eps * seconds as f64).ceil() as usize,
    };
    let total = load_epochs + w.probe_epochs;
    let epoch_texts = scenario_epochs(&snapshot, seed, total)
        .into_iter()
        .map(|(kind, cs)| write_trace(&Trace::from_labeled([(kind.to_string(), cs)])))
        .collect();

    let mut rng = Rng::new(seed);
    let devices: Vec<String> = snapshot.devices.keys().cloned().collect();
    let edges: Vec<String> = devices
        .iter()
        .filter(|d| d.starts_with("edge"))
        .cloned()
        .collect();
    // A host address behind edge switch `edge<p>_<i>` (its servers /24).
    let host_behind = |rng: &mut Rng, edge: &str| -> Flow {
        let (p, i) = edge
            .trim_start_matches("edge")
            .split_once('_')
            .expect("fat-tree edge names are edge<pod>_<index>");
        let p: u32 = p.parse().expect("pod index");
        let i: u32 = i.parse().expect("edge index");
        let host = 2 + rng.below(200);
        let port = [22u16, 80, 443, 8080][rng.below(4)];
        Flow::tcp_to(net_model::ip(&format!("172.{}.{i}.{host}", 16 + p)), port)
    };

    let expected_epochs = load_epochs.max(1);
    let queries: Vec<PoolQuery> = (0..DISTINCT_QUERIES)
        .map(|_| {
            let roll = rng.below(100);
            let src = rng.pick(&devices).clone();
            let (kind, expect) = if roll < 40 {
                let dst = rng.pick(&edges).clone();
                (QueryKind::ReachPair { src, dst }, "reach")
            } else if roll < 65 {
                let edge = rng.pick(&edges).clone();
                let flow = host_behind(&mut rng, &edge);
                (QueryKind::Reach { src, flow }, "reach")
            } else if roll < 80 {
                let last = 1 + rng.below(16);
                (QueryKind::Blast { last }, "blast")
            } else if roll < 90 {
                let from = rng.below(expected_epochs);
                (QueryKind::Report { from, to: from + 2 }, "report")
            } else {
                (QueryKind::Stats, "stats")
            };
            let text = write_query(&Query {
                session: None,
                kind: kind.clone(),
            });
            PoolQuery { kind, text, expect }
        })
        .collect();
    let sends = match w.query_rate {
        Some(rate) => (rate * seconds as f64).ceil() as usize,
        None => PROBE_QUERIES,
    };
    let schedule = (0..sends).map(|_| rng.below(queries.len())).collect();

    let n_subs = if w.watch_subs > 0 {
        w.watch_subs
    } else {
        PROBE_SUBS
    };
    let subs = (0..n_subs)
        .map(|_| {
            let roll = rng.below(100);
            let src = rng.pick(&edges).clone();
            let mut dst = rng.pick(&edges).clone();
            while dst == src {
                dst = rng.pick(&edges).clone();
            }
            let spec = if roll < 35 {
                SubscriptionSpec::ReachPair { src, dst }
            } else if roll < 60 {
                SubscriptionSpec::Blast {
                    device: rng.pick(&devices).clone(),
                }
            } else if roll < 80 {
                SubscriptionSpec::NeverReach { src, dst }
            } else {
                let flow = host_behind(&mut rng, &dst);
                SubscriptionSpec::NoBlackhole { src, flow }
            };
            let text = write_query(&Query {
                session: None,
                kind: QueryKind::Subscribe(spec.clone()),
            });
            Sub { spec, text }
        })
        .collect();

    let snapshot_text = write_snapshot(&snapshot);
    Inputs {
        snapshot,
        snapshot_text,
        epoch_texts,
        load_epochs,
        queries,
        schedule,
        subs,
    }
}
