//! The application layer: file reports, browse verified reports.

use crate::report::Report;
use pol_core::system::{PolSystem, ProverId, SubmissionOutcome, WitnessId};
use pol_core::PolError;
use pol_geo::OlcCode;

/// The crowdsensing application over a wired proof-of-location system.
#[derive(Debug)]
pub struct CrowdsenseApp {
    system: PolSystem,
}

impl CrowdsenseApp {
    /// Wraps a system.
    pub fn new(system: PolSystem) -> CrowdsenseApp {
        CrowdsenseApp { system }
    }

    /// Access to the underlying system.
    pub fn system(&self) -> &PolSystem {
        &self.system
    }

    /// Mutable access to the underlying system.
    pub fn system_mut(&mut self) -> &mut PolSystem {
        &mut self.system
    }

    /// Files a report: upload, attestation, submission (§3.1.2 steps
    /// 1–4).
    ///
    /// # Errors
    ///
    /// Propagates protocol failures; an unattested report never reaches
    /// the chain.
    pub fn file_report(
        &mut self,
        prover: ProverId,
        witness: WitnessId,
        report: &Report,
    ) -> Result<SubmissionOutcome, PolError> {
        self.system.submit_report(prover, witness, report.to_bytes())
    }

    /// Displays the *verified* reports for one area (Fig. 3.2): query the
    /// hypercube for the area's CIDs, fetch each from the DFS, parse.
    ///
    /// # Errors
    ///
    /// Routing failures; unavailable or unparsable reports are skipped.
    pub fn browse_area(&self, area: &OlcCode) -> Result<Vec<Report>, PolError> {
        let record = self.system.hypercube.record(area)?;
        let mut reports = Vec::new();
        if let Some(record) = record {
            for cid_str in &record.cids {
                let Ok(cid) = pol_dfs::Cid::parse(cid_str) else { continue };
                let Ok(bytes) = self.system.dfs.get(&cid) else { continue };
                if let Ok(report) = Report::from_bytes(&bytes) {
                    reports.push(report);
                }
            }
        }
        Ok(reports)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::ReportCategory;
    use pol_chainsim::presets;
    use pol_core::system::SystemConfig;

    #[test]
    fn file_verify_browse() {
        let config = SystemConfig { max_users: 2, ..SystemConfig::default() };
        let system = PolSystem::new(presets::devnet_algo().build(5), config);
        let mut app = CrowdsenseApp::new(system);
        let p1 = app.system_mut().register_prover(44.4949, 11.3426).unwrap();
        let p2 = app.system_mut().register_prover(44.49491, 11.34261).unwrap();
        let w = app.system_mut().register_witness(44.49492, 11.34262).unwrap();

        let r1 = Report::new("Oily spots", "on the river Reno", ReportCategory::Pollution);
        let r2 = Report::new("Waste", "large pile near the park", ReportCategory::Waste);
        let out = app.file_report(p1, w, &r1).unwrap();
        app.file_report(p2, w, &r2).unwrap();

        // Nothing visible until verified ("garbage-in").
        assert!(app.browse_area(&out.area).unwrap().is_empty());
        app.system_mut().run_verifier(&out.area).unwrap();
        let mut titles: Vec<String> =
            app.browse_area(&out.area).unwrap().into_iter().map(|r| r.title).collect();
        titles.sort();
        assert_eq!(titles, vec!["Oily spots".to_string(), "Waste".to_string()]);
    }
}
