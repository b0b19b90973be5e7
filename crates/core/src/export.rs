//! Dependency-free JSON export of compiled schedules.
//!
//! A schedule `Ω` is the deployment artifact of scheduled routing: each
//! communication processor needs its command list. [`Schedule::to_json`]
//! emits the whole schedule in a stable, documented JSON shape so a runtime
//! (or a notebook) can consume it without linking this crate:
//!
//! ```json
//! {
//!   "period_us": 62.5,
//!   "latency_us": 450.0,
//!   "guard_time_us": 0.0,
//!   "peak_utilization": 0.5,
//!   "messages": [ {"id": 0, "path": [0, 1, 3], "segments": [[10.0, 34.0]]} ],
//!   "nodes": [ {"node": 0, "commands": [
//!       {"start": 10.0, "end": 34.0, "from": "processor", "to": "link:2", "message": 0}
//!   ]} ]
//! }
//! ```
//!
//! Only idle-free entries are emitted (idle nodes appear with empty command
//! lists so array indices equal node ids).

use std::fmt::Write;

use crate::buckets::{compact, Buckets};
use crate::{Port, Schedule};

fn port_str(p: Port) -> String {
    match p {
        Port::Processor => "processor".to_string(),
        Port::Link(l) => format!("link:{}", l.index()),
    }
}

/// Formats an `f64` compactly but losslessly enough for schedules
/// (microsecond quantities with LP-derived fractions).
fn num(x: f64) -> String {
    if x == x.trunc() && x.abs() < 1e15 {
        format!("{:.1}", x)
    } else {
        format!("{x}")
    }
}

impl Schedule {
    /// Serializes the schedule to the documented JSON shape (see the module
    /// docs). The output is deterministic.
    pub fn to_json(&self) -> String {
        let mut s = String::with_capacity(4096);
        let _ = write!(
            s,
            "{{\"period_us\":{},\"latency_us\":{},\"guard_time_us\":{},\"peak_utilization\":{},",
            num(self.period),
            num(self.latency()),
            num(self.guard_time),
            num(self.peak_utilization)
        );

        s.push_str("\"messages\":[");
        // Each message's segments, in segment order, gathered in one pass.
        let of_message = self
            .segments
            .iter()
            .enumerate()
            .map(|(si, seg)| (seg.message.index(), compact(si)));
        let own = Buckets::group(self.assignment.len(), of_message);
        for i in 0..self.assignment.len() {
            if i > 0 {
                s.push(',');
            }
            let m = sr_tfg::MessageId(i);
            let path: Vec<String> = self
                .assignment
                .path(m)
                .nodes()
                .iter()
                .map(|n| n.index().to_string())
                .collect();
            let segs: Vec<String> = own.items[own.range(i)]
                .iter()
                .map(|&si| &self.segments[si as usize])
                .map(|seg| format!("[{},{}]", num(seg.start), num(seg.end)))
                .collect();
            let _ = write!(
                s,
                "{{\"id\":{i},\"path\":[{}],\"segments\":[{}]}}",
                path.join(","),
                segs.join(",")
            );
        }
        s.push_str("],\"nodes\":[");
        for (n, ns) in self.node_schedules().iter().enumerate() {
            if n > 0 {
                s.push(',');
            }
            let cmds: Vec<String> = ns
                .commands()
                .iter()
                .map(|c| {
                    format!(
                        "{{\"start\":{},\"end\":{},\"from\":\"{}\",\"to\":\"{}\",\"message\":{}}}",
                        num(c.start),
                        num(c.end),
                        port_str(c.connection.from),
                        port_str(c.connection.to),
                        c.message.index()
                    )
                })
                .collect();
            let _ = write!(
                s,
                "{{\"node\":{},\"commands\":[{}]}}",
                ns.node().index(),
                cmds.join(",")
            );
        }
        s.push_str("]}");
        s
    }
}

#[cfg(test)]
mod tests {
    use crate::{compile, CompileConfig};
    use sr_tfg::{generators, Timing};
    use sr_topology::GeneralizedHypercube;

    fn compiled() -> crate::Schedule {
        let topo = GeneralizedHypercube::binary(3).unwrap();
        let tfg = generators::chain(3, 500, 1280);
        let timing = Timing::new(64.0, 10.0);
        let alloc = sr_mapping::greedy(&tfg, &topo);
        compile(
            &topo,
            &tfg,
            &alloc,
            &timing,
            100.0,
            &CompileConfig::default(),
        )
        .expect("compiles")
    }

    #[test]
    fn json_is_structurally_valid_and_complete() {
        let s = compiled();
        let json = s.to_json();
        sr_obs::json::parse(json.as_bytes()).expect("export parses");
        assert!(json.starts_with('{') && json.ends_with('}'));
        for key in [
            "\"period_us\":100.0",
            "\"latency_us\":",
            "\"peak_utilization\":",
            "\"messages\":[",
            "\"nodes\":[",
            "\"from\":\"processor\"",
            "\"to\":\"processor\"",
        ] {
            assert!(json.contains(key), "missing {key} in {json}");
        }
        // One entry per message and per node.
        assert_eq!(json.matches("\"id\":").count(), 2);
        assert_eq!(json.matches("\"node\":").count(), 8);
        // Command count matches the schedule.
        let want: usize = s.node_schedules().iter().map(|n| n.commands().len()).sum();
        assert_eq!(json.matches("\"start\":").count(), want);
    }

    #[test]
    fn json_is_deterministic() {
        let s = compiled();
        assert_eq!(s.to_json(), s.to_json());
    }
}
