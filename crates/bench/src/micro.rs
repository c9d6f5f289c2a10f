//! E1–E3: NPF and invalidation microbenchmarks (Figure 3, Table 4).
//!
//! Measures the engine's fault-resolution path directly: every
//! iteration faults a *cold* buffer (fresh pages, never touched) the
//! way a cold `ibv_post_send` does, and records the component breakdown
//! and end-to-end latency.

use memsim::manager::{MemConfig, MemoryManager};
use memsim::space::Backing;
use memsim::types::Vpn;
use npf_core::cost::{NpfBreakdown, COST};
use npf_core::npf::{NpfConfig, NpfEngine};
use simcore::instruments::Instruments;
use simcore::rng::SimRng;
use simcore::stats::DurationHistogram;
use simcore::time::SimTime;
use simcore::trace::{TraceRecord, TraceRecorder};
use simcore::units::ByteSize;

use crate::report::{f, Report};

/// Component averages over a set of breakdowns, in microseconds.
#[derive(Debug, Clone, Copy, Default)]
pub struct BreakdownAvg {
    /// (i)→(ii), hardware.
    pub trigger: f64,
    /// (ii)→(iii), software.
    pub driver: f64,
    /// (iii)→(iv), software + hardware.
    pub update: f64,
    /// (iv)→(v), hardware.
    pub resume: f64,
}

impl BreakdownAvg {
    fn total(&self) -> f64 {
        self.trigger + self.driver + self.update + self.resume
    }
}

/// Runs `iterations` cold minor NPFs of `message_bytes` and returns the
/// component averages plus the latency histogram.
pub fn measure_npf(
    message_bytes: u64,
    iterations: u32,
    seed: u64,
) -> (BreakdownAvg, DurationHistogram) {
    let mm = MemoryManager::new(MemConfig {
        total_memory: ByteSize::gib(16),
        ..MemConfig::default()
    });
    let mut engine = NpfEngine::new(NpfConfig::default(), mm, SimRng::new(seed));
    let space = engine.memory_mut().create_space();
    let pages_per_msg = message_bytes.div_ceil(memsim::PAGE_SIZE);
    let region = engine
        .memory_mut()
        .mmap(
            space,
            ByteSize::bytes_exact(message_bytes * u64::from(iterations) + memsim::PAGE_SIZE),
            Backing::Anonymous,
        )
        .expect("buffer region");
    let domain = engine.create_channel(space);

    let mut avg = BreakdownAvg::default();
    let mut hist = DurationHistogram::new();
    for i in 0..iterations {
        let addr = Vpn(region.start.0 + u64::from(i) * pages_per_msg).base();
        let rec = engine
            .begin_fault(SimTime::ZERO, domain, addr, message_bytes, true, None)
            .expect("fault")
            .clone();
        engine.complete_fault(rec.id);
        let b: NpfBreakdown = rec.breakdown;
        avg.trigger += b.trigger_interrupt.as_micros_f64();
        avg.driver += b.driver.as_micros_f64();
        avg.update += b.update_hw_pt.as_micros_f64();
        avg.resume += b.resume.as_micros_f64();
        hist.record(b.total());
    }
    let n = f64::from(iterations);
    avg.trigger /= n;
    avg.driver /= n;
    avg.update /= n;
    avg.resume /= n;
    (avg, hist)
}

/// E1+E2 — Figure 3: execution breakdown of NPF and invalidation.
pub fn fig3(iterations: u32) -> Report {
    let (small, _) = measure_npf(4 * 1024, iterations, 31);
    let (large, _) = measure_npf(4 << 20, iterations, 32);

    let mut r = Report::new("NPF & invalidation execution breakdown", "Figure 3");
    r.columns([
        "path",
        "size",
        "trigger[us]",
        "driver[us]",
        "updatePT[us]",
        "resume[us]",
        "total[us]",
    ]);
    r.row([
        "NPF".into(),
        "4KB".into(),
        f(small.trigger, 1),
        f(small.driver, 1),
        f(small.update, 1),
        f(small.resume, 1),
        f(small.total(), 1),
    ]);
    r.row([
        "NPF".into(),
        "4MB".into(),
        f(large.trigger, 1),
        f(large.driver, 1),
        f(large.update, 1),
        f(large.resume, 1),
        f(large.total(), 1),
    ]);

    // Invalidation breakdown (Figure 3b): mapped and unmapped cases.
    for (label, pages, mapped) in [
        ("inval (mapped)", 1u64, true),
        ("inval (mapped)", 1024, true),
        ("inval (lazy/unmapped)", 1, false),
    ] {
        let b = COST.invalidation(pages, mapped);
        r.row([
            label.into(),
            if pages == 1 { "4KB" } else { "4MB" }.into(),
            "-".into(),
            f(b.checks.as_micros_f64(), 1),
            f(b.update_hw_pt.as_micros_f64(), 1),
            f(b.updates.as_micros_f64(), 1),
            f(b.total().as_micros_f64(), 1),
        ]);
    }
    r.note("paper: 4KB minor NPF ~220us (90% firmware), 4MB ~350us; invalidation 25-65us");
    r.note(format!(
        "hardware fraction at 4KB: {:.0}%",
        100.0 * (small.trigger + small.resume + small.update / 2.0) / small.total()
    ));
    r
}

/// Component averages recovered from `npf` trace spans.
///
/// The engine emits one parent `npf` span per fault whose children
/// (`fault_trigger`, `driver_sw`, `os_translate`, `update_hw_pt`,
/// `resume`) tile it exactly; `driver_sw + os_translate` corresponds to
/// the cost model's `driver` component.
fn traced_breakdown<'a, I: Iterator<Item = &'a TraceRecord>>(records: I) -> (BreakdownAvg, u32) {
    let mut avg = BreakdownAvg::default();
    let mut faults = 0u32;
    for r in records {
        if let TraceRecord::Span {
            track: "npf",
            name,
            duration,
            ..
        } = r
        {
            let us = duration.as_micros_f64();
            match *name {
                "npf" => faults += 1,
                "fault_trigger" => avg.trigger += us,
                "driver_sw" | "os_translate" => avg.driver += us,
                "update_hw_pt" => avg.update += us,
                "resume" => avg.resume += us,
                _ => {}
            }
        }
    }
    if faults > 0 {
        let n = f64::from(faults);
        avg.trigger /= n;
        avg.driver /= n;
        avg.update /= n;
        avg.resume /= n;
    }
    (avg, faults)
}

/// Like [`measure_npf`], but with tracing live: returns the cost-model
/// averages alongside the averages re-derived from recorded spans, plus
/// the number of faults the spans cover.
///
/// Records into the already-installed recorder when one is present
/// (e.g. under a bench binary's `--trace` flag), otherwise installs a
/// private one for the duration of the run.
pub fn measure_npf_traced(
    message_bytes: u64,
    iterations: u32,
    seed: u64,
) -> (BreakdownAvg, BreakdownAvg, u32) {
    let mut installed = Instruments::take();
    let own = installed.trace.is_none();
    // Each fault emits its parent+children spans plus one memsim
    // instant per page, so size the ring to the page count or the 4MB
    // runs wrap and lose the early parent spans.
    let pages = message_bytes.div_ceil(memsim::PAGE_SIZE) as usize;
    let capacity = iterations as usize * (pages + 16) + 64;
    let before = installed
        .trace
        .get_or_insert_with(|| TraceRecorder::new(capacity))
        .len();
    installed.install();
    let (model, _) = measure_npf(message_bytes, iterations, seed);
    let mut installed = Instruments::take();
    let recorder = installed.trace.as_ref().expect("installed above");
    let (derived, faults) = traced_breakdown(recorder.records().skip(before));
    if own {
        installed.trace = None;
    }
    installed.install();
    (model, derived, faults)
}

/// Figure 3 regenerated from recorded spans: the observability layer's
/// cross-check that span-derived component totals agree with the cost
/// model within 1%.
pub fn fig3_traced(iterations: u32) -> Report {
    let (m4k, s4k, n4k) = measure_npf_traced(4 * 1024, iterations, 31);
    let (m4m, s4m, n4m) = measure_npf_traced(4 << 20, iterations, 32);

    let mut r = Report::new(
        "NPF execution breakdown derived from recorded spans",
        "Figure 3, traced",
    );
    r.columns(["size", "component", "model[us]", "spans[us]", "delta[%]"]);
    let mut worst = 0.0f64;
    for (size, m, s) in [("4KB", m4k, s4k), ("4MB", m4m, s4m)] {
        for (name, model_us, span_us) in [
            ("trigger", m.trigger, s.trigger),
            ("driver", m.driver, s.driver),
            ("updatePT", m.update, s.update),
            ("resume", m.resume, s.resume),
            ("total", m.total(), s.total()),
        ] {
            let delta = if model_us == 0.0 {
                0.0
            } else {
                100.0 * (span_us - model_us).abs() / model_us
            };
            worst = worst.max(delta);
            r.row([
                size.into(),
                name.into(),
                f(model_us, 2),
                f(span_us, 2),
                f(delta, 3),
            ]);
        }
    }
    r.note(format!(
        "spans cover {}+{} faults; worst disagreement {worst:.3}% (acceptance: <1%)",
        n4k, n4m
    ));
    r
}

/// E3 — Table 4: tail latency of NPFs.
pub fn table4(iterations: u32) -> Report {
    let (_, mut h4k) = measure_npf(4 * 1024, iterations, 41);
    let (_, mut h4m) = measure_npf(4 << 20, iterations, 42);
    let mut r = Report::new("Tail latency of NPFs", "Table 4");
    r.columns(["message size", "50%", "95%", "99%", "max"]);
    for (label, h) in [("4KB", &mut h4k), ("4MB", &mut h4m)] {
        let p50 = h.percentile(0.50);
        let p95 = h.percentile(0.95);
        let p99 = h.percentile(0.99);
        let max = h.max();
        r.row([
            label.to_owned(),
            format!("{:.0}us", p50.as_micros_f64()),
            format!("{:.0}us", p95.as_micros_f64()),
            format!("{:.0}us", p99.as_micros_f64()),
            format!("{:.0}us", max.as_micros_f64()),
        ]);
    }
    r.note("paper: 4KB 215/250/261/464us; 4MB 352/431/440/687us");
    r
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn npf_4kb_matches_calibration() {
        let (avg, mut hist) = measure_npf(4 * 1024, 300, 7);
        let total = avg.total();
        assert!((190.0..260.0).contains(&total), "4KB total {total:.1}us");
        let p50 = hist.percentile(0.5).as_micros_f64();
        assert!((195.0..245.0).contains(&p50), "median {p50:.1}us");
        // Tails exceed the median but stay bounded.
        let max = hist.max().as_micros_f64();
        assert!(max > p50 * 1.05);
        assert!(max < p50 * 3.0);
    }

    #[test]
    fn npf_4mb_grows_in_software() {
        let (small, _) = measure_npf(4 * 1024, 100, 7);
        let (large, _) = measure_npf(4 << 20, 100, 8);
        assert!(
            large.driver > small.driver * 5.0,
            "software component grows"
        );
        assert!(
            (large.trigger - small.trigger).abs() < 20.0,
            "hardware trigger roughly constant"
        );
        assert!((300.0..420.0).contains(&large.total()));
    }

    #[test]
    fn reports_render() {
        let r = fig3(50);
        assert!(r.render().contains("NPF"));
        let r = table4(100);
        assert!(r.render().contains("4MB"));
    }

    #[test]
    fn span_breakdown_matches_cost_model_within_1pct() {
        for (bytes, seed) in [(4 * 1024, 31), (4 << 20, 32)] {
            let (model, spans, faults) = measure_npf_traced(bytes, 100, seed);
            assert_eq!(faults, 100, "one parent span per fault");
            for (name, m, s) in [
                ("trigger", model.trigger, spans.trigger),
                ("driver", model.driver, spans.driver),
                ("updatePT", model.update, spans.update),
                ("resume", model.resume, spans.resume),
                ("total", model.total(), spans.total()),
            ] {
                let delta = 100.0 * (s - m).abs() / m.max(f64::EPSILON);
                assert!(
                    delta < 1.0,
                    "{name}: model {m:.3}us spans {s:.3}us ({delta:.3}%)"
                );
            }
        }
    }

    #[test]
    fn traced_report_renders_and_leaves_tracing_off() {
        let r = fig3_traced(50);
        let text = r.render();
        assert!(text.contains("spans[us]"));
        assert!(text.contains("worst disagreement"));
        assert!(!simcore::trace::enabled(), "private recorder uninstalled");
    }
}
