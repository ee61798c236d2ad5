//! Criterion bench: protocol-engine hot paths — sink reassembly/ordering
//! under loss, rate-clock scheduling arithmetic, and QoS negotiation.

use cm_core::osdu::{Opdu, Payload};
use cm_core::qos::QosParams;
use cm_core::service_class::ErrorControlClass;
use cm_core::time::{Rate, SimTime};
use cm_transport::rate::RateClock;
use cm_transport::receiver::{SinkAction, SinkEngine};
use cm_transport::tpdu::DataTpdu;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

fn tpdu(seq: u64) -> DataTpdu {
    DataTpdu {
        vc: cm_core::address::VcId(1),
        osdu_seq: seq,
        frag_index: 0,
        frag_count: 1,
        frag_bytes: 1_000,
        opdu: Opdu { seq, event: None },
        payload: Some(Payload::synthetic(seq, 1_000)),
        osdu_sent_at: SimTime::ZERO,
    }
}

fn sink_engine(c: &mut Criterion) {
    let mut g = c.benchmark_group("sink_engine");
    for (name, class, lose_every) in [
        ("clean_detect", ErrorControlClass::DetectIndicate, 0usize),
        ("lossy_detect", ErrorControlClass::DetectIndicate, 50),
        ("lossy_correct", ErrorControlClass::DetectCorrect, 50),
    ] {
        g.bench_function(BenchmarkId::new("10k_osdus", name), |b| {
            b.iter(|| {
                let mut e = SinkEngine::new(class);
                let mut actions = Vec::new();
                let mut delivered = 0u64;
                let mut feed = |e: &mut SinkEngine, seq: u64, now: SimTime| {
                    e.on_tpdu(&tpdu(seq), false, now, &mut actions);
                    actions
                        .drain(..)
                        .filter(|a| matches!(a, SinkAction::Deliver(_)))
                        .count() as u64
                };
                for seq in 0..10_000u64 {
                    if lose_every != 0 && seq as usize % lose_every == 7 {
                        continue; // lost in transit
                    }
                    delivered += feed(&mut e, seq, SimTime::from_micros(seq));
                }
                // Repair pass for the correcting class.
                if class.corrects() {
                    for seq in 0..10_000u64 {
                        if lose_every != 0 && seq as usize % lose_every == 7 {
                            delivered += feed(&mut e, seq, SimTime::from_millis(200));
                        }
                    }
                }
                assert!(delivered > 9_000);
            });
        });
    }
    g.finish();
}

fn rate_clock(c: &mut Criterion) {
    c.bench_function("rate_clock_100k_slots", |b| {
        b.iter(|| {
            let mut clock = RateClock::new(Rate::per_second(44_100));
            clock.start(SimTime::ZERO);
            let mut last = SimTime::ZERO;
            for _ in 0..100_000 {
                let due = clock.next_due().expect("running");
                assert!(due >= last);
                last = due;
                clock.consume_slot();
            }
        });
    });
}

fn qos_negotiation(c: &mut Criterion) {
    let profile = cm_core::media::MediaProfile::video_colour();
    let tol = profile.tolerance(75);
    let offer = QosParams {
        throughput: cm_core::time::Bandwidth::mbps(10),
        delay: cm_core::time::SimDuration::from_millis(40),
        jitter: cm_core::time::SimDuration::from_millis(5),
        packet_error_rate: cm_core::qos::ErrorRate::from_ppm(500),
        bit_error_rate: cm_core::qos::ErrorRate::from_ppm(50),
    };
    c.bench_function("qos_negotiate", |b| {
        b.iter(|| {
            let agreed = tol.negotiate(&offer).expect("negotiable");
            assert!(offer.satisfies(&agreed));
        });
    });
}

criterion_group!(benches, sink_engine, rate_clock, qos_negotiation);
criterion_main!(benches);
