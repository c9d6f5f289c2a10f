//! The metric catalogue (names, units, direction, bound) and how each
//! value is derived from a run's tallies, host timings and kernel costs.

use crate::kernels::KernelCosts;
use crate::workloads::{Kind, Repeat, Tally, Workload};

/// One metric of `BENCHMARK.json`.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// Share of the parent's median by which an end-to-end metric may
    /// worsen; per-layer metrics have none.
    pub bound: Option<f64>,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    bound: f64,
) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: None,
    }
}

/// What a user of the simulator sees: how fast it runs (host), what the
/// modelled design achieves (sim). Same names on every workload.
pub const END_TO_END: [MetricDef; 6] = [
    e2e("setup_s", "s", "lower", 0.25),
    e2e("host_wall_s", "s", "lower", 0.25),
    e2e("peak_rss_mib", "MiB", "lower", 0.10),
    e2e("sim_ops_per_s", "ops/sim_s", "higher", 0.01),
    e2e("sim_lat_mean_us", "sim_us", "lower", 0.01),
    e2e("sim_lat_tail_us", "sim_us", "lower", 0.10),
];

/// Counts, ratios and unit costs of single layers (layer = crate).
pub const PER_LAYER: [MetricDef; 69] = [
    layer("simcore.events_popped", "count", "lower"),
    layer("simcore.cancel_ratio", "ratio", "lower"),
    layer("simcore.queue_depth_end", "count", "lower"),
    layer("simcore.events_per_s", "1/s", "higher"),
    layer("simcore.queue_ns_per_event", "ns", "lower"),
    layer("simcore.est_share", "ratio", "lower"),
    layer("tcpsim.failed_conns", "count", "lower"),
    layer("tcpsim.ns_per_op", "ns", "lower"),
    layer("tcpsim.handshake_ns_per_conn", "ns", "lower"),
    layer("tcpsim.est_share", "ratio", "lower"),
    layer("nicsim.rx_stored", "count", "lower"),
    layer("nicsim.rx_backup_stored", "count", "lower"),
    layer("nicsim.rx_resolved", "count", "lower"),
    layer("nicsim.rx_dropped", "count", "lower"),
    layer("nicsim.rx_delivered_ratio", "ratio", "higher"),
    layer("nicsim.backup_hwm", "count", "lower"),
    layer("nicsim.rx_ns_per_pkt", "ns", "lower"),
    layer("nicsim.backup_ns_per_pkt", "ns", "lower"),
    layer("nicsim.est_share", "ratio", "lower"),
    layer("netsim.packets_sent", "count", "lower"),
    layer("netsim.fabric_drops", "count", "lower"),
    layer("netsim.ecn_marks", "count", "lower"),
    layer("netsim.pfc_pauses", "count", "lower"),
    layer("netsim.link_ns_per_send", "ns", "lower"),
    layer("netsim.fabric_ns_per_pkt", "ns", "lower"),
    layer("netsim.est_share", "ratio", "lower"),
    layer("iommu.iotlb_lookups", "count", "lower"),
    layer("iommu.probe_ns_per_call", "ns", "lower"),
    layer("iommu.map_ns_per_page", "ns", "lower"),
    layer("iommu.invalidate_ns_per_page", "ns", "lower"),
    layer("iommu.est_share", "ratio", "lower"),
    layer("memsim.minor_faults", "count", "lower"),
    layer("memsim.major_faults", "count", "lower"),
    layer("memsim.evictions", "count", "lower"),
    layer("memsim.swap_outs", "count", "lower"),
    layer("memsim.evictions_per_op", "ratio", "lower"),
    layer("memsim.touch_ns_per_page", "ns", "lower"),
    layer("memsim.fault_in_ns_per_page", "ns", "lower"),
    layer("memsim.evict_ns_per_page", "ns", "lower"),
    layer("memsim.est_share", "ratio", "lower"),
    layer("npf-core.npf_events", "count", "lower"),
    layer("npf-core.npf_pages", "count", "lower"),
    layer("npf-core.npf_per_op", "ratio", "lower"),
    layer("npf-core.arb_waits", "count", "lower"),
    layer("npf-core.arb_max_wait_us", "sim_us", "lower"),
    layer("npf-core.invalidations", "count", "lower"),
    layer("npf-core.dma_ready_ns_per_call", "ns", "lower"),
    layer("npf-core.fault_ns_per_npf", "ns", "lower"),
    layer("npf-core.backup_drain_ns_per_pkt", "ns", "lower"),
    layer("npf-core.est_share", "ratio", "lower"),
    layer("rdmasim.data_packets_sent", "count", "lower"),
    layer("rdmasim.retransmits", "count", "lower"),
    layer("rdmasim.rnr_retransmits", "count", "lower"),
    layer("rdmasim.timeouts", "count", "lower"),
    layer("rdmasim.goodput_ratio", "ratio", "higher"),
    layer("rdmasim.ns_per_msg", "ns", "lower"),
    layer("rdmasim.est_share", "ratio", "lower"),
    layer("workloads.kv_hit_ratio", "ratio", "higher"),
    layer("workloads.kv_ns_per_op", "ns", "lower"),
    layer("workloads.est_share", "ratio", "lower"),
    layer("testbed.events_per_op", "ratio", "lower"),
    layer("testbed.host_ns_per_event", "ns", "lower"),
    layer("testbed.residual_share", "ratio", "lower"),
    layer("testbed.sim_lat_p50_us", "sim_us", "lower"),
    layer("testbed.sim_lat_p999_us", "sim_us", "lower"),
    layer("testbed.sim_lat_samples", "count", "higher"),
    layer("harness.warmup_s", "s", "lower"),
    layer("harness.repeats", "count", "higher"),
    layer("harness.trace_overhead_pct", "%", "lower"),
];

/// The crates whose `est_share` is summed into the residual.
pub const LAYERS: [&str; 9] = [
    "simcore",
    "tcpsim",
    "nicsim",
    "netsim",
    "iommu",
    "memsim",
    "npf-core",
    "rdmasim",
    "workloads",
];

/// Path MTU of `RcConfig::default()`: payload bytes per data packet.
const RC_MTU: u64 = 4096;

/// Named values in catalogue order.
pub type Values = Vec<(&'static str, f64)>;

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Per-operation ratios the shape guards read.
pub fn shape_ratios(t: &Tally) -> Values {
    let w = &t.window;
    vec![
        ("npf-core.npf_per_op", ratio(w.npf_events, w.ops)),
        ("memsim.evictions_per_op", ratio(w.evictions, w.ops)),
        (
            "rdmasim.goodput_ratio",
            // First transmissions ÷ all data packets; 1 where no RC
            // traffic ran.
            if w.data_packets_sent == 0 {
                1.0
            } else {
                ratio(
                    w.data_packets_sent - w.retransmits - w.rnr_retransmits,
                    w.data_packets_sent,
                )
            },
        ),
    ]
}

/// Simulated operations per simulated second over the window.
pub fn sim_ops_per_s(t: &Tally) -> f64 {
    t.window.ops as f64 / (t.window.sim_ns as f64 / 1e9)
}

/// Host seconds of the measured window over `repeats`: slice by slice,
/// the quiet value across repeats (see [`crate::stats::quiet_total`]).
pub fn host_wall_s(repeats: &[&Repeat]) -> f64 {
    let slices: Vec<&[f64]> = repeats.iter().map(|r| &r.slice_s[..]).collect();
    crate::stats::quiet_total(&slices)
}

/// The end-to-end metrics of a run: host figures over the repeats,
/// simulated values from the (identical) tallies.
pub fn end_to_end(setup_s: f64, host_wall_s: f64, peak_rss_mib: f64, t: &Tally) -> Values {
    vec![
        ("setup_s", setup_s),
        ("host_wall_s", host_wall_s),
        ("peak_rss_mib", peak_rss_mib),
        ("sim_ops_per_s", sim_ops_per_s(t)),
        ("sim_lat_mean_us", t.lat.mean_ns as f64 / 1e3),
        ("sim_lat_tail_us", t.lat.tail_mean_ns as f64 / 1e3),
    ]
}

/// Estimated host seconds each layer spent in the window: exact count
/// times isolated unit cost. Nested kernels are charged once, to the
/// inner layer: `dma_ready` contains the IOMMU probe, an NPF contains
/// its pages' fault-in and mapping, a backup drain contains the nicsim
/// backup cycle.
fn layer_seconds(w: &Workload, t: &Tally, k: &KernelCosts) -> Vec<(&'static str, f64)> {
    let c = &t.window;
    let ns = |name: &str| k.ns(name);
    let rx_packets = (c.rx_stored + c.rx_backup_stored + c.rx_dropped) as f64;
    // Every DMA target is probed: received packets on Ethernet, data
    // packets at both ends (gather and scatter) on InfiniBand.
    let (dma_checks, link_sends, fabric_sends) = match w.kind {
        // The server-to-client half of the link is not observable; it
        // carries a response and ACKs per request, as the client half
        // carries a request and ACKs.
        Kind::Eth(_) => (rx_packets, 2.0 * rx_packets, 0.0),
        Kind::Ib(_) => (2.0 * c.data_packets_sent as f64, 0.0, c.packets_sent as f64),
    };
    let faults = (c.minor_faults + c.major_faults) as f64;
    let evicting = (c.evictions as f64).min(faults);
    let fault_self = (ns("npf-core.fault_ns_per_npf")
        - ratio(c.npf_pages, c.npf_events)
            * (ns("memsim.fault_in_ns_per_page") + ns("iommu.map_ns_per_page")))
    .max(0.0);
    let drain_self =
        (ns("npf-core.backup_drain_ns_per_pkt") - ns("nicsim.backup_ns_per_pkt")).max(0.0);
    let dma_self = (ns("npf-core.dma_ready_ns_per_call") - ns("iommu.probe_ns_per_call")).max(0.0);
    let ops = c.ops as f64;
    let kv_ops = if matches!(w.kind, Kind::Eth(_)) {
        ops
    } else {
        0.0
    };
    // Retransmitted packets cost rdmasim work too, so its share scales
    // with data packets sent, at the loopback cost of one packet.
    let rc_ns_per_packet = match w.kind {
        Kind::Ib(spec) => ns("rdmasim.ns_per_msg") / spec.message_bytes.div_ceil(RC_MTU) as f64,
        Kind::Eth(_) => 0.0,
    };
    vec![
        (
            "simcore",
            c.events as f64 * ns("simcore.queue_ns_per_event"),
        ),
        (
            "tcpsim",
            kv_ops * ns("tcpsim.ns_per_op")
                + t.conns_opened as f64 * ns("tcpsim.handshake_ns_per_conn"),
        ),
        (
            "nicsim",
            c.rx_stored as f64 * ns("nicsim.rx_ns_per_pkt")
                + c.rx_backup_stored as f64 * ns("nicsim.backup_ns_per_pkt"),
        ),
        (
            "netsim",
            link_sends * ns("netsim.link_ns_per_send")
                + fabric_sends * ns("netsim.fabric_ns_per_pkt"),
        ),
        (
            "iommu",
            dma_checks * ns("iommu.probe_ns_per_call")
                + c.npf_pages as f64 * ns("iommu.map_ns_per_page")
                + c.invalidations as f64 * ns("iommu.invalidate_ns_per_page"),
        ),
        (
            "memsim",
            kv_ops * ns("memsim.touch_ns_per_page")
                + (faults - evicting) * ns("memsim.fault_in_ns_per_page")
                + evicting * ns("memsim.evict_ns_per_page"),
        ),
        (
            "npf-core",
            dma_checks * dma_self
                + c.npf_events as f64 * fault_self
                + c.rx_backup_stored as f64 * drain_self,
        ),
        ("rdmasim", c.data_packets_sent as f64 * rc_ns_per_packet),
        ("workloads", kv_ops * ns("workloads.kv_ns_per_op")),
    ]
    .into_iter()
    .map(|(layer, total_ns)| (layer, total_ns / 1e9))
    .collect()
}

/// The per-layer metrics of a traced run.
pub fn per_layer(
    w: &Workload,
    untraced: &[&Repeat],
    traced: &[&Repeat],
    kernels: &KernelCosts,
) -> Values {
    let t = &untraced[0].tally;
    let c = &t.window;
    let host_wall_s = host_wall_s(untraced);
    // Whole windows, counter snapshots included: the quietest of each.
    let quietest = |repeats: &[&Repeat]| {
        let windows = repeats.iter().map(|r| r.measure_s);
        windows.fold(f64::INFINITY, f64::min)
    };
    let ratios = shape_ratios(t);
    let shape = |name: &str| {
        ratios
            .iter()
            .find(|(k, _)| *k == name)
            .expect("shape ratio")
            .1
    };
    let rx_arrivals = c.rx_stored + c.rx_backup_stored + c.rx_dropped;

    let shares: Vec<(&'static str, f64)> = layer_seconds(w, t, kernels)
        .into_iter()
        .map(|(layer, seconds)| (layer, seconds / host_wall_s))
        .collect();
    let share = |layer: &str| shares.iter().find(|(k, _)| *k == layer).expect("layer").1;
    let residual = 1.0 - shares.iter().map(|(_, s)| s).sum::<f64>();

    PER_LAYER
        .iter()
        .map(|def| {
            let value = match def.name {
                "simcore.events_popped" => c.events as f64,
                "simcore.cancel_ratio" => ratio(c.events_cancelled, c.events_scheduled),
                "simcore.queue_depth_end" => t.queue_depth_end as f64,
                "simcore.events_per_s" => c.events as f64 / host_wall_s,
                "tcpsim.failed_conns" => t.failed_conns as f64,
                "nicsim.rx_stored" => c.rx_stored as f64,
                "nicsim.rx_backup_stored" => c.rx_backup_stored as f64,
                "nicsim.rx_resolved" => c.rx_resolved as f64,
                "nicsim.rx_dropped" => c.rx_dropped as f64,
                "nicsim.rx_delivered_ratio" => {
                    if rx_arrivals == 0 {
                        1.0
                    } else {
                        ratio(c.rx_stored + c.rx_resolved, rx_arrivals)
                    }
                }
                "nicsim.backup_hwm" => t.backup_hwm as f64,
                "netsim.packets_sent" => c.packets_sent as f64,
                "netsim.fabric_drops" => c.fabric_drops as f64,
                "netsim.ecn_marks" => c.ecn_marks as f64,
                "netsim.pfc_pauses" => c.pfc_pauses as f64,
                "iommu.iotlb_lookups" => c.iotlb_lookups as f64,
                "memsim.minor_faults" => c.minor_faults as f64,
                "memsim.major_faults" => c.major_faults as f64,
                "memsim.evictions" => c.evictions as f64,
                "memsim.swap_outs" => c.swap_outs as f64,
                "memsim.evictions_per_op" | "npf-core.npf_per_op" | "rdmasim.goodput_ratio" => {
                    shape(def.name)
                }
                "npf-core.npf_events" => c.npf_events as f64,
                "npf-core.npf_pages" => c.npf_pages as f64,
                "npf-core.arb_waits" => c.arb_waits as f64,
                "npf-core.arb_max_wait_us" => t.arb_max_wait_ns as f64 / 1e3,
                "npf-core.invalidations" => c.invalidations as f64,
                "rdmasim.data_packets_sent" => c.data_packets_sent as f64,
                "rdmasim.retransmits" => c.retransmits as f64,
                "rdmasim.rnr_retransmits" => c.rnr_retransmits as f64,
                "rdmasim.timeouts" => c.timeouts as f64,
                "workloads.kv_hit_ratio" => ratio(c.hits, c.ops),
                "testbed.events_per_op" => ratio(c.events, c.ops),
                "testbed.host_ns_per_event" => host_wall_s * 1e9 / c.events as f64,
                "testbed.residual_share" => residual,
                "testbed.sim_lat_p50_us" => t.lat.p50_ns as f64 / 1e3,
                "testbed.sim_lat_p999_us" => t.lat.p999_ns as f64 / 1e3,
                "testbed.sim_lat_samples" => t.lat.samples as f64,
                "harness.warmup_s" => {
                    crate::stats::median(&untraced.iter().map(|r| r.warmup_s).collect::<Vec<_>>())
                }
                "harness.repeats" => (untraced.len() + traced.len()) as f64,
                "harness.trace_overhead_pct" => {
                    (quietest(traced) / quietest(untraced) - 1.0) * 100.0
                }
                name => match name.strip_suffix(".est_share") {
                    Some(layer) => share(layer),
                    None => kernels.ns(name),
                },
            };
            (def.name, value)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;
    use crate::kernels::KERNELS;

    fn valid_name(name: &str) -> bool {
        let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
        !name.is_empty()
            && name.len() <= 64
            && name.chars().all(ok)
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
    }

    fn valid_unit(unit: &str) -> bool {
        let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-');
        !unit.is_empty() && unit.len() <= 16 && unit.chars().all(ok)
    }

    #[test]
    fn every_name_and_unit_is_well_formed_and_unique() {
        let mut names: Vec<&str> = crate::workloads::all().iter().map(|w| w.name).collect();
        for def in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(valid_unit(def.unit), "{}: unit {:?}", def.name, def.unit);
            assert!(matches!(def.better, "lower" | "higher"), "{}", def.name);
            names.push(def.name);
        }
        for name in &names {
            assert!(valid_name(name), "{name:?}");
        }
        let mut unique = names.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), names.len(), "a name is used twice");
        for w in crate::workloads::all() {
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
    }

    #[test]
    fn every_kernel_and_layer_share_is_a_per_layer_metric() {
        let has = |name: &str| PER_LAYER.iter().any(|d| d.name == name);
        for (name, _) in KERNELS {
            assert!(has(name), "kernel {name} is not reported");
        }
        for layer in LAYERS {
            assert!(has(&format!("{layer}.est_share")), "{layer}");
        }
        for w in crate::workloads::all() {
            for g in w.guards {
                assert!(has(g.metric), "guard on unknown metric {}", g.metric);
            }
        }
    }

    /// `BENCHMARK.json` is the contract the driver reads; the binary
    /// must emit exactly the names it lists.
    #[test]
    fn benchmark_json_lists_exactly_what_the_binary_emits() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let doc = Json::parse(&text).expect("BENCHMARK.json parses");
        let keys: Vec<&str> = doc
            .as_object()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
        let listed =
            |key: &str| -> Vec<Json> { doc.get(key).and_then(Json::as_array).unwrap().to_vec() };
        let field = |j: &Json, f: &str| j.get(f).and_then(Json::as_str).unwrap().to_owned();

        let workloads = listed("workloads");
        let expect = crate::workloads::all();
        assert_eq!(workloads.len(), expect.len());
        for (j, w) in workloads.iter().zip(&expect) {
            assert_eq!(field(j, "name"), w.name);
            assert_eq!(field(j, "why"), w.why);
            assert_eq!(j.as_object().unwrap().len(), 2);
        }
        for (key, defs) in [
            ("end_to_end", &END_TO_END[..]),
            ("per_layer", &PER_LAYER[..]),
        ] {
            let metrics = listed(key);
            assert_eq!(metrics.len(), defs.len(), "{key}");
            for (j, def) in metrics.iter().zip(defs) {
                assert_eq!(field(j, "name"), def.name);
                assert_eq!(field(j, "unit"), def.unit, "{}", def.name);
                assert_eq!(field(j, "better"), def.better, "{}", def.name);
                assert_eq!(
                    j.get("bound").and_then(Json::as_f64),
                    def.bound,
                    "{}",
                    def.name
                );
                assert_eq!(
                    j.as_object().unwrap().len(),
                    if def.bound.is_some() { 4 } else { 3 }
                );
            }
        }
        let setup = &listed("end_to_end")[0];
        assert_eq!(field(setup, "name"), "setup_s");
        let run_seconds = doc.get("run_seconds").and_then(Json::as_f64).unwrap();
        assert_eq!(run_seconds, crate::DEFAULT_SECONDS as f64);
    }
}
