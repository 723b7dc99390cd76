//! Property-based tests for the host-network substrate.

use hostcc_fabric::{FlowId, Packet};
use hostcc_host::{Demand, HostConfig, MemoryController, RxHost, TickOutput, CACHELINE};
use hostcc_sim::{Nanos, Rate, Rng};
use proptest::prelude::*;

fn pkt(id: u64, payload: u32) -> Packet {
    Packet::data(id, FlowId(0), 0, payload, false, Nanos::ZERO)
}

proptest! {
    /// Memory-controller grants never exceed demands, never exceed
    /// capacity, and are work-conserving: if total demand exceeds the cap,
    /// the cap is fully used; otherwise everyone gets their demand.
    #[test]
    fn memctrl_grants_are_feasible_and_work_conserving(
        demands in prop::collection::vec((0.0f64..1e5, 0.0f64..500.0), 3..=3),
    ) {
        let cfg = HostConfig::paper_default();
        let mut mc = MemoryController::new();
        let dt = Nanos::from_nanos(100);
        let d: Vec<Demand> = demands
            .iter()
            .map(|&(bytes, weight)| Demand { bytes, weight })
            .collect();
        let g = mc.tick(&cfg, dt, d[0], d[1], d[2]);
        let cap = cfg.mem_saturated.bytes_in(dt);
        let grants = [g.iio, g.mapp, g.copy];
        for (gr, dem) in grants.iter().zip(&d) {
            prop_assert!(*gr <= dem.bytes + 1e-6, "grant beyond demand");
            prop_assert!(*gr >= 0.0);
        }
        let total: f64 = grants.iter().sum();
        let total_demand: f64 = d.iter().map(|x| x.bytes).sum();
        prop_assert!(total <= cap + 1e-6, "over capacity");
        if total_demand <= cap {
            prop_assert!((total - total_demand).abs() < 1e-6, "under-serving without saturation");
        } else {
            prop_assert!(total > cap - 1e-3, "not work-conserving: {total} < {cap}");
        }
    }

    /// The receiver datapath conserves packets: every offered packet is
    /// either delivered, dropped at the NIC, or still in flight — never
    /// duplicated, never lost silently — and delivery preserves FIFO order.
    #[test]
    fn rxhost_conserves_packets(
        seed in any::<u64>(),
        degree in 0.0f64..3.5,
        offered_gbps in 10.0f64..140.0,
        payload in 200u32..8000,
    ) {
        let cfg = HostConfig::paper_default();
        cfg.validate();
        if payload as u64 + 66 > cfg.nic_buffer_bytes {
            return Ok(());
        }
        let mut h = RxHost::new(cfg.clone(), degree);
        let mut rng = Rng::new(seed);
        let dt = cfg.tick;
        let gap = Rate::gbps(offered_gbps).time_for_bytes(u64::from(payload) + 66);
        let mut now = Nanos::ZERO;
        let mut next = Nanos::ZERO;
        let mut id = 0u64;
        let mut delivered_ids = Vec::new();
        let mut offered = 0u64;
        let mut out = TickOutput::default();
        while now < Nanos::from_micros(300) {
            now += dt;
            while next <= now {
                // Jittered arrivals.
                let p = pkt(id, payload);
                h.on_wire_arrival(p, next);
                offered += 1;
                id += 1;
                next += gap.scale(rng.jitter(1.0, 0.3));
            }
            h.tick_into(now, &mut out);
            delivered_ids.extend(out.delivered.iter().map(|p| p.id));
            prop_assert!(out.occupancy_cl >= 0.0);
            prop_assert!(out.occupancy_cl <= cfg.pcie_max_credit_cl as f64 + 1e-9);
        }
        // FIFO delivery, no duplicates.
        for w in delivered_ids.windows(2) {
            prop_assert!(w[1] > w[0], "out-of-order or duplicate delivery");
        }
        // Conservation: delivered + dropped ≤ offered.
        let drops = h.nic_drops();
        prop_assert!(delivered_ids.len() as u64 + drops <= offered);
        prop_assert_eq!(h.nic_arrivals() + drops, offered);
    }

    /// NIC backlog never exceeds the configured buffer size.
    #[test]
    fn nic_backlog_bounded(seed in any::<u64>(), burst in 1usize..600) {
        let cfg = HostConfig::paper_default();
        let mut h = RxHost::new(cfg.clone(), 3.0);
        let mut rng = Rng::new(seed);
        let mut now = Nanos::ZERO;
        for i in 0..burst {
            let payload = 200 + (rng.below(3800)) as u32;
            h.on_wire_arrival(pkt(i as u64, payload), now);
            prop_assert!(h.nic_backlog_bytes() <= cfg.nic_buffer_bytes);
        }
        let mut out = TickOutput::default();
        for _ in 0..100 {
            now += cfg.tick;
            h.tick_into(now, &mut out);
            prop_assert!(h.nic_backlog_bytes() <= cfg.nic_buffer_bytes);
        }
    }

    /// Memory accounting: bytes served to the three entities over a run
    /// equal the controller's totals, and utilization fractions stay in
    /// [0, 1].
    #[test]
    fn memory_accounting_consistent(degree in 0.0f64..3.5, rate in 10.0f64..120.0) {
        let cfg = HostConfig::paper_default();
        let mut h = RxHost::new(cfg.clone(), degree);
        let dt = cfg.tick;
        let gap = Rate::gbps(rate).time_for_bytes(4096);
        let mut now = Nanos::ZERO;
        let mut next = Nanos::ZERO;
        let mut id = 0;
        let dur = Nanos::from_micros(500);
        let mut out = TickOutput::default();
        while now < dur {
            now += dt;
            while next <= now {
                h.on_wire_arrival(pkt(id, 4030), next);
                id += 1;
                next += gap;
            }
            h.tick_into(now, &mut out);
        }
        let net = h.net_mem_rate(dur) / cfg.mem_peak;
        let mapp = h.mapp_mem_rate(dur) / cfg.mem_peak;
        prop_assert!((0.0..=1.0).contains(&net), "net util {net}");
        prop_assert!((0.0..=1.0).contains(&mapp), "mapp util {mapp}");
        prop_assert!(net + mapp <= 1.0 + 1e-9, "total util over 1");
        // Served DMA bytes can never exceed offered DMA bytes (each packet
        // is ceil(wire × overhead) bytes on the PCIe).
        let offered_dma = id as f64 * (4096.0 * cfg.pcie_overhead).ceil();
        prop_assert!(h.mc().served_iio_bytes <= offered_dma + 1.0);
    }

    /// The MSR occupancy integral is monotone and consistent with the
    /// occupancy bounds: ΔR_OCC over any tick ≤ credit-limit × Δcycles.
    #[test]
    fn msr_integral_bounded(degree in 0.0f64..3.5) {
        let cfg = HostConfig::paper_default();
        let mut h = RxHost::new(cfg.clone(), degree);
        let dt = cfg.tick;
        let mut now = Nanos::ZERO;
        let mut last_rocc = 0u64;
        let mut out = TickOutput::default();
        for id in 0..2000 {
            now += dt;
            h.on_wire_arrival(pkt(id, 4030), now);
            h.tick_into(now, &mut out);
            let rocc = h.msr().rocc(cfg.f_iio_ghz);
            prop_assert!(rocc >= last_rocc, "R_OCC must be monotone");
            let max_delta =
                (cfg.pcie_max_credit_cl as f64 * dt.as_nanos() as f64 * cfg.f_iio_ghz) as u64 + 1;
            prop_assert!(rocc - last_rocc <= max_delta, "occupancy above credit limit");
            last_rocc = rocc;
        }
    }

    /// CACHELINE sanity: the config helpers keep units consistent.
    #[test]
    fn config_unit_consistency(degree in 0.0f64..4.0) {
        let cfg = HostConfig::paper_default();
        let inflight = cfg.mapp_inflight(degree);
        prop_assert!((inflight - degree * 80.0).abs() < 1e-9);
        prop_assert_eq!(cfg.pcie_credit_bytes(), (cfg.pcie_max_credit_cl * CACHELINE) as f64);
        // Latency curves are monotone in utilization.
        let mut last = Nanos::ZERO;
        for i in 0..=20 {
            let u = i as f64 / 20.0;
            let l = cfg.l_m_of(u);
            prop_assert!(l >= last);
            last = l;
        }
    }
}
