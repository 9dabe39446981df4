//! The environment record printed with every result: perfbase's
//! [`EnvFingerprint`] plus the cache sizes the working sets are stated
//! against.

use reshape_perfbase::EnvFingerprint;

/// Size in bytes of the CPU cache at `level` ("2", or the highest level
/// for the LLC), from sysfs; `None` where sysfs does not say.
fn cache_bytes(level: Option<&str>) -> Option<u64> {
    let mut best: Option<(u32, u64)> = None;
    for idx in 0..8 {
        let dir = format!("/sys/devices/system/cpu/cpu0/cache/index{idx}");
        let read = |f: &str| std::fs::read_to_string(format!("{dir}/{f}")).ok();
        let (Some(lvl), Some(size), Some(kind)) = (read("level"), read("size"), read("type"))
        else {
            continue;
        };
        if kind.trim() == "Instruction" {
            continue;
        }
        let lvl: u32 = lvl.trim().parse().ok()?;
        let size = size.trim();
        let bytes = match size.strip_suffix('K') {
            Some(k) => k.parse::<u64>().ok()? * 1024,
            None => match size.strip_suffix('M') {
                Some(m) => m.parse::<u64>().ok()? * 1024 * 1024,
                None => size.parse().ok()?,
            },
        };
        let wanted = match level {
            Some(l) => lvl.to_string() == l,
            None => best.is_none_or(|(b, _)| lvl > b),
        };
        if wanted {
            best = Some((lvl, bytes));
        }
    }
    best.map(|(_, b)| b)
}

fn esc(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

/// One-line JSON environment record.
pub fn record(workload: &str, seed: u64, extra: &[(&'static str, String)]) -> String {
    let fp = EnvFingerprint::capture(seed, false);
    let opt = |v: Option<u64>| v.map_or("null".to_string(), |b| b.to_string());
    let mut fields = vec![
        format!("\"workload\": \"{}\"", esc(workload)),
        format!("\"seed\": {seed}"),
        format!("\"host\": \"{}\"", esc(&fp.host)),
        format!("\"os\": \"{}\"", esc(&fp.os)),
        format!("\"arch\": \"{}\"", esc(&fp.arch)),
        format!("\"nproc\": {}", fp.cpus),
        format!("\"rustc\": \"{}\"", esc(&fp.rustc)),
        format!("\"git_sha\": \"{}\"", esc(&fp.git_sha)),
        format!("\"l2_bytes\": {}", opt(cache_bytes(Some("2")))),
        format!("\"llc_bytes\": {}", opt(cache_bytes(None))),
    ];
    for (k, v) in extra {
        fields.push(format!("\"{k}\": \"{}\"", esc(v)));
    }
    format!("{{{}}}", fields.join(", "))
}
