//! `fedtop` — a text dashboard pane for the federation control plane,
//! mirroring what `simulate --top` does for a single cluster: per-shard
//! rows (state, epoch, queue, idle/lent/borrowed, brownout), per-tenant
//! rows (quota utilization bar, queue, admitted/shed), and the live lease
//! table. [`frame`] is a pure function of federation state and virtual
//! time, so rendering never perturbs a run; the `fedtop` binary in
//! `reshape-bench` drives it over a scripted scenario.

use std::fmt::Write as _;

use crate::fed::{Federation, HealRepairKind};
use crate::lease::LeasePhase;

/// Width of the quota-utilization bar, in cells.
const BAR: usize = 10;

/// Render one dashboard frame for `fed` at virtual time `t`.
pub fn frame(fed: &Federation, t: f64) -> String {
    let mut s = String::new();
    let _ = writeln!(s, "── federation @ t={t:<9.2} ─────────────────────────────────");
    let _ = writeln!(
        s,
        "{:>5}  {:<5} {:>5} {:>5} {:>5} {:>5} {:>8}  flags",
        "shard", "state", "epoch", "queue", "idle", "lent", "borrowed"
    );
    for sh in fed.shards() {
        let (state, epoch, idle, lent, borrowed) = match sh.core() {
            Some(core) => (
                "live",
                core.epoch().to_string(),
                core.idle_procs().to_string(),
                core.lent_procs().to_string(),
                core.borrowed_procs().to_string(),
            ),
            None => ("down", "-".into(), "-".into(), "-".into(), "-".into()),
        };
        let mut flags = String::new();
        if sh.brownout() {
            flags.push_str("BROWNOUT ");
        }
        if sh.kills() > 0 {
            let _ = write!(flags, "kills={}", sh.kills());
        }
        let _ = writeln!(
            s,
            "{:>5}  {:<5} {:>5} {:>5} {:>5} {:>5} {:>8}  {}",
            sh.id(),
            state,
            epoch,
            sh.queue_len(),
            idle,
            lent,
            borrowed,
            flags.trim_end()
        );
    }
    let _ = writeln!(
        s,
        "{:>6}  {:>15}  {:<BAR$}  {:>6} {:>8} {:>5}",
        "tenant", "in-flight/quota", "util", "queued", "admitted", "shed"
    );
    for tenant in fed.tenant_ids() {
        let quota = fed.tenant_quota(tenant);
        let used = fed.tenant_in_flight(tenant);
        let util = used as f64 / quota.max(1) as f64;
        let filled = ((util * BAR as f64).round() as usize).min(BAR);
        let bar: String = "█".repeat(filled) + &"░".repeat(BAR - filled);
        let _ = writeln!(
            s,
            "{:>6}  {:>15}  {}  {:>6} {:>8} {:>5}",
            tenant,
            format!("{used}/{quota}"),
            bar,
            fed.tenant_queue_len(tenant),
            fed.tenant_admitted(tenant),
            fed.tenant_shed(tenant),
        );
    }
    let live = fed.live_leases();
    let total = fed.leases().count();
    let _ = writeln!(s, "leases ({live} live / {total} total)");
    if total > 0 {
        let _ = writeln!(
            s,
            "{:>4}  {:<7} {:<9} {:>5} {:>9}  flags",
            "id", "route", "phase", "procs", "expires"
        );
    }
    for l in fed.leases() {
        let phase = match l.phase() {
            LeasePhase::Offered => "Offered",
            LeasePhase::Active => "Active",
            LeasePhase::Released => "Released",
            LeasePhase::Reclaimed => "Reclaimed",
        };
        let _ = writeln!(
            s,
            "{:>4}  {:<7} {:<9} {:>5} {:>9}  {}",
            l.id,
            format!("{}→{}", l.lender, l.borrower),
            phase,
            l.global.len(),
            format!("t+{:.1}", l.expires - t),
            if l.fenced() { "FENCED" } else { "" },
        );
    }
    let _ = writeln!(
        s,
        "bus: {} unacked · drops: {} · fences: {} · repairs: {} (fixup {} / evict {} / escrow {})",
        fed.bus_pending(),
        fed.partition_drops(),
        fed.fences(),
        fed.heal_repairs(),
        fed.heal_repairs_of(HealRepairKind::RecoveryFixup),
        fed.heal_repairs_of(HealRepairKind::EvictStaleBorrow),
        fed.heal_repairs_of(HealRepairKind::ReturnEscrow),
    );
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fed::FederationConfig;
    use crate::tenant::TenantConfig;

    #[test]
    fn frame_renders_all_sections() {
        let fed = Federation::new(FederationConfig::new(
            vec![4, 4],
            vec![TenantConfig::new(8, 1.0, 4)],
        ));
        let f = frame(&fed, 0.0);
        assert!(f.contains("federation @ t=0.00"), "{f}");
        assert!(f.contains("shard"), "{f}");
        assert!(f.contains("tenant"), "{f}");
        assert!(f.contains("leases (0 live / 0 total)"), "{f}");
        assert!(f.contains("bus: 0 unacked"), "{f}");
        // Two shard rows, both live.
        let live_rows = f
            .lines()
            .filter(|l| l.contains(" live ") && !l.starts_with("leases"))
            .count();
        assert_eq!(live_rows, 2, "{f}");
    }
}
