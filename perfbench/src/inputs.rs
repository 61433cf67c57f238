//! Seeded workload inputs. Every input is made by the public `workloads`
//! generators from the run's `--seed`; the program under test only ever
//! sees the generated ops.

use deltanet::DeltaNet;
use netmodel::topology::{LinkId, Topology};
use netmodel::trace::{Op, Trace};
use workloads::sdnip::{airtel_pair_failures, airtel_single_failures, SdnIpConfig};
use workloads::topologies::airtel_default;

/// Prefixes each border router advertises in the Airtel datasets: a tenth
/// of the paper's 100, so the engine's state (about 1.2 MB on Airtel-2)
/// fits in a core's private L2 cache. At the paper's value it is about
/// 9 MB and lives in the shared L3, whose latency on a shared host moved
/// replay time by up to 60% between sets of runs a quarter of an hour
/// apart, far past any bound a gate may use.
const PREFIXES_PER_ROUTER: usize = 10;

/// 2-pair failures replayed for Airtel-2: the `small` scale of the
/// repository's Table 2 datasets.
const AIRTEL2_PAIRS: usize = 60;

/// How many of the most-used links what-if queries target (Table 4's
/// choice: the links with the largest labels).
pub const WHATIF_LINKS: usize = 25;

/// A generated dataset: the topology and its op trace.
pub struct Input {
    /// The switch topology (drop links are added by whoever needs them).
    pub topology: Topology,
    /// The ops, in trace order.
    pub ops: Vec<Op>,
}

/// Mixes the run seed with a per-dataset salt (splitmix64), so one
/// `--seed` yields independent streams for each generator.
fn derive(seed: u64, salt: u64) -> u64 {
    let mut z = seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn input(topology: Topology, trace: Trace) -> Input {
    Input {
        topology,
        ops: trace.ops().to_vec(),
    }
}

/// Airtel-1: SDN-IP on the Airtel WAN, every inter-switch link failed and
/// recovered once (about 22k ops).
pub fn airtel1(seed: u64) -> Input {
    let config = SdnIpConfig {
        prefixes_per_router: PREFIXES_PER_ROUTER,
        seed: derive(seed, 0xA1),
    };
    let (topo, trace) = airtel_single_failures(airtel_default(), config, None);
    input(topo.topology, trace)
}

/// Airtel-2: SDN-IP on the Airtel WAN, the first 60 link pairs failed and
/// recovered (about 108k ops).
pub fn airtel2(seed: u64) -> Input {
    let config = SdnIpConfig {
        prefixes_per_router: PREFIXES_PER_ROUTER,
        seed: derive(seed, 0xA2),
    };
    let (topo, trace) = airtel_pair_failures(airtel_default(), config, Some(AIRTEL2_PAIRS));
    input(topo.topology, trace)
}

/// The [`WHATIF_LINKS`] most-used links of a data plane, as Table 4 picks
/// them: largest label (atoms forwarded over the link) first, ties by
/// link id.
pub fn most_used_links(net: &DeltaNet) -> Vec<LinkId> {
    let topology = net.topology();
    let mut links: Vec<(LinkId, usize)> = topology
        .links()
        .iter()
        .filter(|l| !topology.is_drop_link(l.id))
        .map(|l| (l.id, net.label(l.id).len()))
        .filter(|&(_, n)| n > 0)
        .collect();
    links.sort_by_key(|&(l, n)| (std::cmp::Reverse(n), l.index()));
    links
        .into_iter()
        .take(WHATIF_LINKS)
        .map(|(l, _)| l)
        .collect()
}
