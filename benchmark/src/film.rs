//! The lip-sync workload: many films orchestrated on one stack.
//!
//! Each film is the paper's §3.6 film at scale: an audio and a video
//! [`MediaStream`] from two storage servers whose clocks drift in
//! opposite directions, played out at one workstation and started by
//! `Hlo::orchestrate_and_start` under the lip-sync policy. Films share
//! the switch and the HLO; each has its own workstation and servers.

use crate::probe::{Op, Probe};
use crate::report::Fnv;
use cm_core::media::MediaProfile;
use cm_core::rng::DetRng;
use cm_core::time::{SimDuration, SimTime};
use cm_media::{SkewMeter, StoredClip};
use cm_obs::Obs;
use cm_orchestration::{HloAgent, OrchestrationPolicy};
use cm_testkit::scenario::MediaStream;
use cm_testkit::{Stack, StackConfig};
use cm_transport::EntityConfig;
use netsim::TestbedConfig;
use std::cell::Cell;
use std::rc::Rc;

/// Films per run.
pub const FILMS: usize = 48;
/// Simulated seconds each run plays after the orchestrated start.
pub const PLAY_SECS: u64 = 180;
/// Source clock skew magnitudes are drawn from this range, ppm.
pub const SKEW_PPM: (u64, u64) = (500, 5000);
/// The lip-sync threshold (DESIGN.md, paper §3.6), µs.
pub const LIP_SYNC_US: u64 = 80_000;

/// One film: its two streams, both played out at the film's workstation.
pub struct Film {
    /// Audio track (telephone-grade, 50 units/s).
    pub audio: MediaStream,
    /// Video track (mono, 25 units/s).
    pub video: MediaStream,
}

/// The stack with every film connected and registered, not yet started.
pub struct FilmSet {
    /// The stack.
    pub stack: Stack,
    /// The films, workstation order.
    pub films: Vec<Film>,
    /// The causal-trace registry shared by every entity.
    pub obs: Obs,
}

/// Per-film clock skews `(audio server, video server)`, ppm: opposite
/// signs, magnitude uniform in [`SKEW_PPM`].
pub fn skews(seed: u64) -> Vec<(i32, i32)> {
    let mut rng = DetRng::from_seed(seed ^ 0xf11_5e7);
    (0..FILMS)
        .map(|_| {
            let s = rng.range_inclusive(SKEW_PPM.0, SKEW_PPM.1) as i32;
            if rng.range_inclusive(0, 1) == 0 {
                (s, -s)
            } else {
                (-s, s)
            }
        })
        .collect()
}

/// Build the stack and connect every film's two VCs.
pub fn build(seed: u64, skews: &[(i32, i32)], telemetry: Option<usize>) -> FilmSet {
    let films = skews.len();
    let obs = Obs::disabled();
    if telemetry.is_some() {
        obs.enable();
    }
    // Clocks are assigned in creation order: workstations, then servers.
    let mut clocks = vec![0; films];
    for &(a, v) in skews {
        clocks.push(a);
        clocks.push(v);
    }
    let cfg = StackConfig {
        testbed: TestbedConfig {
            workstations: films,
            servers: 2 * films,
            clock_skews_ppm: clocks,
            seed,
            ..TestbedConfig::default()
        },
        entity: EntityConfig {
            obs: obs.clone(),
            ..EntityConfig::default()
        },
        ..StackConfig::default()
    };
    let stack = Stack::build(cfg);
    if let Some(cap) = telemetry {
        stack.engine().telemetry().enable(cap);
    }
    let audio_profile = MediaProfile::audio_telephone();
    let video_profile = MediaProfile::video_mono();
    // The clips outlast the run, so no stream ends inside it.
    let audio_clip = StoredClip::cbr_for(&audio_profile, PLAY_SECS + 30);
    let video_clip = StoredClip::cbr_for(&video_profile, PLAY_SECS + 30);
    let films = (0..films)
        .map(|i| {
            let ws = stack.tb.workstations[i];
            let (a_srv, v_srv) = (stack.tb.servers[2 * i], stack.tb.servers[2 * i + 1]);
            Film {
                audio: MediaStream::build(&stack, a_srv, ws, &audio_profile, &audio_clip),
                video: MediaStream::build(&stack, v_srv, ws, &video_profile, &video_clip),
            }
        })
        .collect();
    FilmSet { stack, films, obs }
}

/// What a played run observed.
pub struct Played {
    /// One agent per orchestration that was accepted.
    pub agents: Vec<HloAgent>,
    /// Orchestrations refused at the call.
    pub refused: u64,
    /// Orchestrations whose start callback reported success.
    pub started: u64,
    /// Simulated instant the orchestrations were issued.
    pub issued_at: SimTime,
    /// Host time of `Stack::run_for`, ns.
    pub run_ns: u64,
}

/// Orchestrate and start every film, then play for [`PLAY_SECS`].
pub fn play(set: &FilmSet, probe: &Rc<Probe>) -> Played {
    let started = Rc::new(Cell::new(0u64));
    let mut agents = Vec::new();
    let mut refused = 0;
    let issued_at = set.stack.engine().now();
    for f in &set.films {
        let started = started.clone();
        let p = probe.clone();
        let res = probe.call(Op::OrchStart, || {
            set.stack.hlo.orchestrate_and_start(
                &[f.audio.vc, f.video.vc],
                OrchestrationPolicy::lip_sync(),
                move |r| {
                    p.callback(Op::Callback, || {
                        if r.is_ok() {
                            started.set(started.get() + 1);
                        }
                    })
                },
            )
        });
        match res {
            Ok(agent) => agents.push(agent),
            Err(_) => refused += 1,
        }
    }
    let ((), run_ns) = probe.phase("engine.run", || {
        set.stack.run_for(SimDuration::from_secs(PLAY_SECS))
    });
    Played {
        agents,
        refused,
        started: started.get(),
        issued_at,
        run_ns,
    }
}

/// Skew statistics over every film, sampled each simulated second.
pub struct SkewStats {
    /// All samples, µs, sorted.
    pub samples_us: Vec<u64>,
    /// FNV over (film, stream, seq, presentation µs) of every log.
    pub fnv: Fnv,
    /// Presentation logs whose seq did not rise strictly.
    pub disordered_logs: u64,
    /// Streams that presented nothing.
    pub silent_streams: u64,
}

/// Sample every film's inter-stream skew once per simulated second,
/// from one second after the orchestrations were issued to the end.
pub fn skew_stats(set: &FilmSet, issued_at: SimTime) -> SkewStats {
    let end = set.stack.engine().now();
    let mut samples_us = Vec::new();
    let mut fnv = Fnv::default();
    let mut disordered_logs = 0;
    let mut silent_streams = 0;
    for (i, f) in set.films.iter().enumerate() {
        let logs = [
            (MediaProfile::audio_telephone().osdu_rate, &f.audio),
            (MediaProfile::video_mono().osdu_rate, &f.video),
        ];
        for (s, (_, stream)) in logs.iter().enumerate() {
            let log = stream.sink.log.borrow();
            if log.is_empty() {
                silent_streams += 1;
            }
            if log.windows(2).any(|w| w[1].seq <= w[0].seq) {
                disordered_logs += 1;
            }
            for p in log.iter() {
                for w in [i as u64, s as u64, p.seq, p.at.as_micros()] {
                    fnv.word(w);
                }
            }
        }
        let meter = SkewMeter::new(
            logs.iter()
                .map(|(rate, stream)| (*rate, stream.sink.log.borrow().clone()))
                .collect(),
        );
        let (series, _) = meter.series(
            issued_at + SimDuration::from_secs(1),
            end,
            SimDuration::from_secs(1),
        );
        samples_us.extend(series.iter().map(|(_, d)| d.as_micros()));
    }
    samples_us.sort_unstable();
    SkewStats {
        samples_us,
        fnv,
        disordered_logs,
        silent_streams,
    }
}
