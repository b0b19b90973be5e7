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
//!
//! Each point also pins its node switching schedules `Ω`: an FNV-1a 64 over
//! every command of [`Schedule::node_schedules`], node by node — the node,
//! start bits, end bits, both ports and the message — or over nothing for a
//! point without a schedule. Those values were computed by the compiler as
//! it stood while a `Schedule` still stored `Ω` beside its segments, so a
//! derivation that moves one command, reorders a node's commands or
//! rewires one crossbar port fails here.

use sr::core::Port;
use sr::prelude::*;
use sr_bench::{standard_workload, sweep_periods, Platform, LOAD_POINTS};

/// Folds one word into an FNV-1a 64 hash, byte by little-endian byte.
fn fnv(h: u64, word: u64) -> u64 {
    let step = |h: u64, b: &u8| (h ^ u64::from(*b)).wrapping_mul(0x0100_0000_01b3);
    word.to_le_bytes().iter().fold(h, step)
}

/// A point's two pinned values: the segments and winner, and `Ω`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Pins {
    segments: u64,
    omega: u64,
}

/// FNV-1a 64 over `words`.
fn hash(words: impl IntoIterator<Item = u64>) -> u64 {
    words.into_iter().fold(0xcbf2_9ce4_8422_2325, fnv)
}

/// `Ω`'s pinned value: every command, node by node.
fn omega_pin(schedule: &Schedule) -> u64 {
    let port = |p: Port| match p {
        Port::Link(link) => link.index() as u64,
        Port::Processor => u64::MAX,
    };
    let mut words = Vec::new();
    for ns in schedule.node_schedules() {
        for c in ns.commands() {
            words.extend([
                ns.node().index() as u64,
                c.start.to_bits(),
                c.end.to_bits(),
                port(c.connection.from),
                port(c.connection.to),
                c.message.index() as u64,
            ]);
        }
    }
    hash(words)
}

/// Compiles one point; returns its pinned values and whether the winner
/// sat on a rung after the first (`search.winner.scale_permille` < 1000).
fn pin(platform: &Platform, period: f64) -> (Pins, bool) {
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
    let pins = Pins {
        segments: hash(words),
        omega: result.as_ref().map_or(hash([]), omega_pin),
    };
    (pins, later_rung)
}

type Sweep = (
    fn(f64) -> Platform,
    f64,
    [u64; LOAD_POINTS],
    [u64; LOAD_POINTS],
);

/// `(platform, bandwidth, pinned segment value per sweep load, pinned `Ω`
/// value per sweep load)`, lowest load first.
#[rustfmt::skip]
const SWEEPS: &[Sweep] = &[
    (Platform::cube6, 64.0, [
        0x5cb57d1d75b0986d, 0x7894cdc20ff5a1da, 0xa9df7a23fd538fb8, 0x482ff1139f0f0d39,
        0xa79c980046252a4a, 0x73446efe9d4394f7, 0xdd71fc25a3def878, 0xb24c393f3d7b2163,
        0x699273ff06a53c13, 0x1b36db265db4f0cb, 0xb38e80eda9eac5ce, 0x522e510edc4d4287,
    ], [
        0x92d2d12ca8f41a48, 0x13a5773512cae0d3, 0x09f237c9bbfa085e, 0x37c59a0e332c22ff,
        0xcbf29ce484222325, 0x30450edae550ffad, 0xbe1d5c87283d29e4, 0x8502e1efdeed884b,
        0xca1dfa6e88a0c313, 0xf4f4e68ecec64aba, 0xcbf29ce484222325, 0xcbf29ce484222325,
    ]),
    (Platform::ghc444, 64.0, [
        0xc2c56d1c85e05b63, 0x9240bc3000b0a199, 0x2f49645d3a1b5e64, 0x0f85c2f8068f2654,
        0x5a8f78b2d082b6fb, 0x629bf1e1d1732699, 0x735c187a74325e12, 0x228cf37ed45bdd6a,
        0x485eb83c552b078e, 0xcef472889f14873a, 0x5b9b7479813c2f25, 0xaaeb14ef26e2a7f6,
    ], [
        0xc44ca9670b86314f, 0x1f00682ced4bbc51, 0x239a0e58221d6325, 0x48b3c4d9aa35433e,
        0xcbf29ce484222325, 0xcbb71072b2ac7dc9, 0xee8b60047063c591, 0x65cc320330bd00ee,
        0x73c32de6438f019f, 0x398737fdb9eb78dd, 0x001e95788dd412c6, 0xf66fabcb2e0cded0,
    ]),
    (Platform::torus8x8, 64.0, [
        0x4480714da02ea40f, 0x4480714da02ea40f, 0x4480714da02ea40f, 0x4480714da02ea40f,
        0x35aa617a727fc28d, 0x4480714da02ea40f, 0x4480714da02ea40f, 0x4480714da02ea40f,
        0x4480714da02ea40f, 0x4480714da02ea40f, 0xe6d150d56b046187, 0xfdd2122b9725468c,
    ], [
        0xcbf29ce484222325, 0xcbf29ce484222325, 0xcbf29ce484222325, 0xcbf29ce484222325,
        0xcbf29ce484222325, 0xcbf29ce484222325, 0xcbf29ce484222325, 0xcbf29ce484222325,
        0xcbf29ce484222325, 0xcbf29ce484222325, 0xcbf29ce484222325, 0xcbf29ce484222325,
    ]),
    (Platform::torus444, 64.0, [
        0xc51be340f6ca8035, 0xeff03fb48fe77994, 0x99dbce5deb00c056, 0xbc39653eea534ade,
        0xa79c980046252a4a, 0x3a02d8553254b22a, 0x2bafb8635be235c3, 0x7f052a734aff6ecf,
        0x7f052a734aff6ecf, 0x7f052a734aff6ecf, 0xb38e80eda9eac5ce, 0x522e510edc4d4287,
    ], [
        0xf900b7f4901bdb3c, 0xbbdcde5e7c12fef2, 0x9f2ca0fb1a231f01, 0x3d7791708fcea2c3,
        0xcbf29ce484222325, 0xc2c066b5fc26746d, 0x04d706bcfb52d23a, 0xcbf29ce484222325,
        0xcbf29ce484222325, 0xcbf29ce484222325, 0xcbf29ce484222325, 0xcbf29ce484222325,
    ]),
    (Platform::cube6, 128.0, [
        0x524e6c7ad739a667, 0xa7431deefb755305, 0x2957a9e5b8e35df7, 0x4040987a70572899,
        0x577102ded1384729, 0xd4cca673b976d061, 0x3bdc580f51932dfa, 0x093256769d7ed9d9,
        0xf08eadeafb93ce70, 0xe08ab1a9704db861, 0x44ee3b6c8268403a, 0x5b598ccd72b6c825,
    ], [
        0x5f6bd23248bfae4a, 0x834e4a0f10651ce8, 0xd73fa2ce9bdbd4f1, 0x93bb97cf773b7432,
        0x7e36d62b162b13bf, 0x6ef882fecda3bb94, 0x6a8a79b3cf3aeb7e, 0xe0e915b1ba8863b8,
        0xc280436b71fcc794, 0xe6976a2a39e7aaec, 0xe6a3b43e2f0b3b27, 0xceae76907b2b16bc,
    ]),
    (Platform::ghc444, 128.0, [
        0x5185711670d1ab0c, 0x57d10c51fcbf8545, 0xb6a51364fb29a95f, 0x249bb79db79a46ae,
        0x30b4409078a2c08a, 0x48ed5df0facfa93c, 0xb3f122a7e19f5593, 0x7c993ef099791401,
        0x26ae549fdc31a72b, 0x53052ca47dc6881c, 0xa16c58855ed96d7c, 0x110bd7acb65bca37,
    ], [
        0x17b637ae228bf803, 0x3ed8e2fba1bc827c, 0xaa554632ec829641, 0x2a12a938dc767eac,
        0x76b4e43e21e3cafe, 0x3c29738f0c2e3eca, 0x6d46258678c9218c, 0x673fdef9f2de8b2d,
        0x7dd1cd56fa3fb354, 0x6021a37f35fecb4d, 0x9de8c228a244db81, 0xe3a6dfd8c439ca35,
    ]),
    (Platform::torus8x8, 128.0, [
        0xc8b1c7c22a9a161e, 0x9703cc81df4848ce, 0x5ce60ab18721afd7, 0x2a8201a8055363ae,
        0xf6d728227e0b0ca2, 0x1a6b2a8a60799568, 0x554a735cef68de7f, 0x5d90495f506fea6f,
        0x3cd7e1697fb26adb, 0xfef1fbe388bf2703, 0x3f3fa0522ba308d4, 0x9146fde6001b1424,
    ], [
        0x46a55232106c8f4d, 0x61202f1d261e780b, 0x948a7a78ac07eca1, 0xb1d8a929a34f1d48,
        0x955787fd9c9b8236, 0x32a2378b754b352b, 0x4350596f1a0f51a3, 0x0456a3f9bf335f15,
        0xa7ef6d8f499768ed, 0x3106106e630ca0a4, 0x55ccc01ceee376b2, 0x456529ec719aace5,
    ]),
    (Platform::torus444, 128.0, [
        0x22f3f27d64a8ae25, 0xced61ebe0de4792b, 0x423d2a50feb1e1cc, 0x17ec50dc81b3b621,
        0x02ff0f9ad33fa5b2, 0x1ef3be31abe42f22, 0xe1f17c4e9335d097, 0xeae0ffe6c4d8a71c,
        0xf72df8eb9afadefe, 0xe3071f59209e7bd8, 0x59980781b611d8af, 0xbbdfe9099fb14d1b,
    ], [
        0x859ee20a7fe36e54, 0x4bd162db28c33785, 0x9766e4d6098cfb3a, 0x2282f14b4da3bcc6,
        0x2285010d1bb14b87, 0x599c8662d227ed85, 0xc632539d5802da3b, 0xf09d826c561cc63c,
        0x62a3c591bc581d1e, 0x7710776231b56aaa, 0x217cae4af1dba9fb, 0xe40d7ac49d41927f,
    ]),
];

/// `(load, pinned segment value, pinned `Ω` value)` on the 4×4 torus at
/// B = 128 — the metrics gate's contended loads, where the winner sits on a
/// later rung.
const GATE_POINTS: &[(f64, u64, u64)] = &[
    (0.7, 0x42e716d8f0190866, 0xc80f797a5bd1ad28),
    (0.85, 0xa03ef143cf88bc35, 0xbb5072314f227dc0),
];

#[test]
fn flat_simplex_schedules_match_the_pinned_corpus() {
    let tau_c = |platform: &Platform| {
        let (tfg, _, timing) = standard_workload(platform);
        timing.longest_task(&tfg)
    };
    let mut points = Vec::new();
    for &(platform, bandwidth, segments, omega) in SWEEPS {
        let platform = platform(bandwidth);
        let tau_c = tau_c(&platform);
        let pinned = segments.into_iter().zip(omega);
        for (period, (segments, omega)) in sweep_periods(tau_c).into_iter().zip(pinned) {
            points.push((
                platform.name.clone(),
                tau_c / period,
                Pins { segments, omega },
                pin(&platform, period),
            ));
        }
    }
    let gate = Platform::torus4x4(128.0);
    let tau_c = tau_c(&gate);
    for &(load, segments, omega) in GATE_POINTS {
        let pinned = Pins { segments, omega };
        points.push((gate.name.clone(), load, pinned, pin(&gate, tau_c / load)));
    }

    let mut moved = Vec::new();
    for (name, load, want, (got, _)) in &points {
        for (what, want, got) in [
            ("segments", want.segments, got.segments),
            ("Ω", want.omega, got.omega),
        ] {
            if got != want {
                moved.push(format!(
                    "{name} at load {load:.4}: {what} pinned {want:#018x}, got {got:#018x}"
                ));
            }
        }
    }
    assert!(moved.is_empty(), "schedules moved:\n{}", moved.join("\n"));
    let later_rungs = points.iter().filter(|(.., (_, later))| *later).count();
    assert!(
        later_rungs >= 3,
        "only {later_rungs} points win on a rung after the first"
    );
}
