//! Flat-simplex compile outputs across the paper corpus, pinned bit for bit.
//!
//! Every point compiles the standard DVB workload ([`standard_workload`])
//! with the default configuration run serially — the flat pipeline with the
//! simplex allocation engine: the four Fig. 5/6 platforms at B = 64 and
//! B = 128 over the twelve-load sweep, plus the metrics-gate platform (the
//! 4×4 torus, B = 128) at loads 0.7 and 0.85. The pinned value is an
//! FNV-1a 64 over the winning candidate's rank and every segment's message,
//! start bits and end bits — or, for a point without a schedule, over the
//! error text — so an allocation change that moves one segment by one ulp,
//! or the winner to another `(seed, scale)` candidate, fails here.
//!
//! The values were computed by the compiler as it stood while the compile
//! walk still warm-started the allocation LPs down each capacity ladder and
//! re-derived warm winners cold. That chain only ever touched winners on a
//! rung after the first, so the test also requires that at least three
//! points still win there; a cold-only walk reproducing every value is the
//! evidence that deleting the chain changed no schedule.

use sr::prelude::*;
use sr_bench::{standard_workload, sweep_periods, Platform, LOAD_POINTS};

/// Folds one word into an FNV-1a 64 hash, byte by little-endian byte.
fn fnv(h: u64, word: u64) -> u64 {
    let step = |h: u64, b: &u8| (h ^ u64::from(*b)).wrapping_mul(0x0100_0000_01b3);
    word.to_le_bytes().iter().fold(h, step)
}

/// Compiles one point; returns its pinned value and whether the winner sat
/// on a rung after the first (`search.winner.scale_permille` < 1000).
fn pin(platform: &Platform, period: f64) -> (u64, bool) {
    let (tfg, alloc, timing) = standard_workload(platform);
    let config = CompileConfig {
        parallelism: 1,
        ..CompileConfig::default()
    };
    let rec = MetricsRecorder::new();
    let result = compile_with_recorder(
        platform.topo.as_ref(),
        &tfg,
        &alloc,
        &timing,
        period,
        &config,
        &rec,
    );
    let counters = rec.counters();
    let mut words = Vec::new();
    match &result {
        Ok(schedule) => {
            words.push(counters["search.winner.rank"]);
            for s in schedule.segments() {
                words.extend([s.message.index() as u64, s.start.to_bits(), s.end.to_bits()]);
            }
        }
        Err(e) => {
            words.push(u64::MAX);
            words.extend(e.to_string().bytes().map(u64::from));
        }
    }
    let later_rung = result.is_ok() && counters["search.winner.scale_permille"] < 1000;
    let hash = words.into_iter().fold(0xcbf2_9ce4_8422_2325, fnv);
    (hash, later_rung)
}

type Sweep = (fn(f64) -> Platform, f64, [u64; LOAD_POINTS]);

/// `(platform, bandwidth, pinned value per sweep load, lowest load first)`.
#[rustfmt::skip]
const SWEEPS: &[Sweep] = &[
    (Platform::cube6, 64.0, [
        0x5cb57d1d75b0986d, 0x7894cdc20ff5a1da, 0xa9df7a23fd538fb8, 0x482ff1139f0f0d39,
        0xa79c980046252a4a, 0x73446efe9d4394f7, 0xdd71fc25a3def878, 0xb24c393f3d7b2163,
        0x699273ff06a53c13, 0x1b36db265db4f0cb, 0xb38e80eda9eac5ce, 0x522e510edc4d4287,
    ]),
    (Platform::ghc444, 64.0, [
        0xc2c56d1c85e05b63, 0x9240bc3000b0a199, 0x2f49645d3a1b5e64, 0x0f85c2f8068f2654,
        0x5a8f78b2d082b6fb, 0x629bf1e1d1732699, 0x735c187a74325e12, 0x228cf37ed45bdd6a,
        0x485eb83c552b078e, 0xcef472889f14873a, 0x5b9b7479813c2f25, 0xaaeb14ef26e2a7f6,
    ]),
    (Platform::torus8x8, 64.0, [
        0x4480714da02ea40f, 0x4480714da02ea40f, 0x4480714da02ea40f, 0x4480714da02ea40f,
        0x35aa617a727fc28d, 0x4480714da02ea40f, 0x4480714da02ea40f, 0x4480714da02ea40f,
        0x4480714da02ea40f, 0x4480714da02ea40f, 0xe6d150d56b046187, 0xfdd2122b9725468c,
    ]),
    (Platform::torus444, 64.0, [
        0xc51be340f6ca8035, 0xeff03fb48fe77994, 0x99dbce5deb00c056, 0xbc39653eea534ade,
        0xa79c980046252a4a, 0x3a02d8553254b22a, 0x2bafb8635be235c3, 0x7f052a734aff6ecf,
        0x7f052a734aff6ecf, 0x7f052a734aff6ecf, 0xb38e80eda9eac5ce, 0x522e510edc4d4287,
    ]),
    (Platform::cube6, 128.0, [
        0x524e6c7ad739a667, 0xa7431deefb755305, 0x2957a9e5b8e35df7, 0x4040987a70572899,
        0x577102ded1384729, 0xd4cca673b976d061, 0x3bdc580f51932dfa, 0x093256769d7ed9d9,
        0xf08eadeafb93ce70, 0xe08ab1a9704db861, 0x44ee3b6c8268403a, 0x5b598ccd72b6c825,
    ]),
    (Platform::ghc444, 128.0, [
        0x5185711670d1ab0c, 0x57d10c51fcbf8545, 0xb6a51364fb29a95f, 0x249bb79db79a46ae,
        0x30b4409078a2c08a, 0x48ed5df0facfa93c, 0xb3f122a7e19f5593, 0x7c993ef099791401,
        0x26ae549fdc31a72b, 0x53052ca47dc6881c, 0xa16c58855ed96d7c, 0x110bd7acb65bca37,
    ]),
    (Platform::torus8x8, 128.0, [
        0xc8b1c7c22a9a161e, 0x9703cc81df4848ce, 0x5ce60ab18721afd7, 0x2a8201a8055363ae,
        0xf6d728227e0b0ca2, 0x1a6b2a8a60799568, 0x554a735cef68de7f, 0x5d90495f506fea6f,
        0x3cd7e1697fb26adb, 0xfef1fbe388bf2703, 0x3f3fa0522ba308d4, 0x9146fde6001b1424,
    ]),
    (Platform::torus444, 128.0, [
        0x22f3f27d64a8ae25, 0xced61ebe0de4792b, 0x423d2a50feb1e1cc, 0x17ec50dc81b3b621,
        0x02ff0f9ad33fa5b2, 0x1ef3be31abe42f22, 0xe1f17c4e9335d097, 0xeae0ffe6c4d8a71c,
        0xf72df8eb9afadefe, 0xe3071f59209e7bd8, 0x59980781b611d8af, 0xbbdfe9099fb14d1b,
    ]),
];

/// `(load, pinned value)` on the 4×4 torus at B = 128 — the metrics gate's
/// contended loads, where the winner sits on a later rung.
const GATE_POINTS: &[(f64, u64)] = &[(0.7, 0x42e716d8f0190866), (0.85, 0xa03ef143cf88bc35)];

#[test]
fn flat_simplex_schedules_match_the_pinned_corpus() {
    let tau_c = |platform: &Platform| {
        let (tfg, _, timing) = standard_workload(platform);
        timing.longest_task(&tfg)
    };
    let mut points = Vec::new();
    for &(platform, bandwidth, pinned) in SWEEPS {
        let platform = platform(bandwidth);
        let tau_c = tau_c(&platform);
        for (period, want) in sweep_periods(tau_c).into_iter().zip(pinned) {
            points.push((
                platform.name.clone(),
                tau_c / period,
                want,
                pin(&platform, period),
            ));
        }
    }
    let gate = Platform::torus4x4(128.0);
    let tau_c = tau_c(&gate);
    for &(load, want) in GATE_POINTS {
        points.push((gate.name.clone(), load, want, pin(&gate, tau_c / load)));
    }

    let moved: Vec<String> = points
        .iter()
        .filter(|(.., want, (got, _))| got != want)
        .map(|(name, load, want, (got, _))| {
            format!("{name} at load {load:.4}: pinned {want:#018x}, got {got:#018x}")
        })
        .collect();
    assert!(moved.is_empty(), "schedules moved:\n{}", moved.join("\n"));
    let later_rungs = points.iter().filter(|(.., (_, later))| *later).count();
    assert!(
        later_rungs >= 3,
        "only {later_rungs} points win on a rung after the first"
    );
}
