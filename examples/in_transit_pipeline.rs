//! In-transit pipeline: Heat3D on 4 simulation ranks streaming to 2
//! dedicated staging ranks that histogram the temperature field.
//!
//! The paper's two placements (§3.2) co-locate analytics with the
//! simulation; this example exercises the third placement added by
//! `smart_core::in_transit`. The simulation ranks keep their halo exchange
//! on the world communicator and pay only wire serialization plus
//! credit-window backpressure per time-step, while the staging ranks run
//! the full Smart pipeline (reduction map → local combination → global
//! combination) among themselves.
//!
//! ```sh
//! cargo run --release --example in_transit_pipeline
//! ```

use smart_insitu::analytics::Histogram;
use smart_insitu::core::{
    run_in_transit, InTransitConfig, KeyMode, Producer, SchedArgs, Scheduler, SmartError, Topology,
};
use smart_insitu::sim::Heat3D;

const GRID: usize = 24; // 24³ global grid, slab-decomposed over the producers
const R: f64 = 0.15; // stencil parameter, stable for r ≤ 1/6
const STEPS: usize = 12;
const PRODUCERS: usize = 4;
const STAGERS: usize = 2;
const WINDOW: usize = 2; // credit window: steps of lookahead per producer
const BUCKETS: usize = 24;

fn main() {
    let topo = Topology::new(PRODUCERS, STAGERS);
    let outcome = run_in_transit(
        topo,
        InTransitConfig::with_window(WINDOW),
        KeyMode::Single,
        |prod: &mut Producer<f64>| {
            // Each producer owns a Z-slab and exchanges ghost planes with
            // its neighbours exactly as it would without analytics.
            let mut sim = Heat3D::new(GRID, GRID, GRID, R, prod.index(), prod.producers());
            let offset = sim.partition_offset();
            for _ in 0..STEPS {
                let field = sim.step(prod.comm()).map_err(SmartError::Comm)?;
                // Hand the time-step to the stager; returns as soon as the
                // data is serialized, blocking only on the credit window.
                prod.feed(offset, field)?;
            }
            Ok(sim.partition_len())
        },
        |_stager| {
            let pool = smart_insitu::pool::shared_pool(2)?;
            let app = Histogram::new(0.0, 100.0, BUCKETS);
            let sched = Scheduler::new(app, SchedArgs::new(2, 1), pool)?;
            Ok((sched, vec![0u64; BUCKETS]))
        },
    );

    let (producers, stagers) = outcome.into_result().expect("in-transit run");

    // Global combination ran among the staging ranks: they agree bit for bit.
    for s in 1..stagers.len() {
        assert_eq!(stagers[s].map_bytes, stagers[0].map_bytes, "stager {s} diverged");
        assert_eq!(stagers[s].out, stagers[0].out);
    }
    let out = &stagers[0].out;
    let total: u64 = out.iter().sum();
    assert_eq!(total as usize, STEPS * GRID * GRID * GRID, "every sample histogrammed");

    println!(
        "Heat3D {GRID}³ on {PRODUCERS} simulation ranks → {STAGERS} staging ranks, \
         {STEPS} steps, credit window {WINDOW}\n"
    );
    println!("temperature histogram ({BUCKETS} buckets over [0, 100)), √-scaled bars:\n");
    let peak = *out.iter().max().unwrap() as f64;
    for (i, &count) in out.iter().enumerate() {
        let t = 100.0 * (i as f64 + 0.5) / BUCKETS as f64;
        let bar = "#".repeat(((count as f64 / peak).sqrt() * 56.0).round() as usize);
        println!("{t:>6.1} | {bar} {count}");
    }

    println!("\ntransport:");
    for (s, stager) in stagers.iter().enumerate() {
        let stats = &stager.stats;
        println!(
            "  stager {s}: {} steps, {} KiB received, recv-busy {:.1?} + decode {:.1?}, \
             producers' send-busy {:.1?} (encode {:.1?})",
            stager.steps,
            stats.transit_bytes / 1024,
            stats.transit_recv_busy,
            stats.transit_decode_busy,
            stats.transit_send_busy,
            stats.transit_encode_busy,
        );
        for (rx, p) in stager.streams.iter().zip(topo.producers_of(s)) {
            // The credit window bounds the staging-side buffer: at most
            // WINDOW un-consumed time-step payloads per producer.
            let step_bytes =
                smart_insitu::wire::encoded_len(&vec![0.0f64; producers[p].result]).unwrap();
            let bound = WINDOW as u64 * step_bytes;
            assert!(
                rx.buffered_bytes_peak <= bound,
                "producer {p}: buffered peak {} exceeds credit-window bound {bound}",
                rx.buffered_bytes_peak
            );
            println!(
                "    producer {p}: buffered peak {} B ≤ window bound {bound} B \
                 (credit waits on the sim side: {:.1?})",
                rx.buffered_bytes_peak, producers[p].stream.credit_wait
            );
        }
    }
}
