//! Result fingerprints for the correctness gate.
//!
//! A campaign fingerprint covers everything a campaign computes —
//! aggregates, per-program records, sources and successful sources,
//! generation failures and LLM call counts — and excludes the wall-clock
//! field (`pipeline_time`). A diversity fingerprint covers the bits of
//! the average CodeBLEU, the scored pair count and the clone counts.

use llm4fp::CampaignResult;
use llm4fp_metrics::{CloneType, DiversityReport};

/// FNV-1a over `bytes`, continuing from `hash`.
fn fnv1a(hash: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(hash, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3))
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

fn json<T: serde::Serialize>(value: &T) -> String {
    serde_json::to_string(value).expect("campaign values always serialize")
}

/// Fingerprint of a campaign result, wall-clock fields excluded.
pub fn campaign(result: &CampaignResult) -> u64 {
    let parts = [
        json(&result.aggregates),
        json(&result.records),
        json(&result.sources),
        json(&result.successful_sources),
        json(&(result.generation_failures, result.llm_calls)),
        json(&result.simulated_llm_time),
    ];
    parts.iter().fold(FNV_OFFSET, |h, part| fnv1a(fnv1a(h, part.as_bytes()), &[0xff]))
}

/// Fingerprint of a diversity report.
pub fn diversity(report: &DiversityReport) -> u64 {
    let mut words = vec![report.avg_codebleu.to_bits(), report.pairs_scored as u64];
    words.extend(CloneType::ALL.iter().map(|&t| report.clone_pairs(t) as u64));
    words.iter().fold(FNV_OFFSET, |h, w| fnv1a(h, &w.to_le_bytes()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use llm4fp::{ApproachKind, Campaign, CampaignConfig};
    use std::time::Duration;

    #[test]
    fn campaign_fingerprint_ignores_wall_clock_and_sees_results() {
        let config = CampaignConfig::new(ApproachKind::Varity).with_budget(6).with_seed(3);
        let mut a = Campaign::new(config).run();
        let reference = campaign(&a);
        a.pipeline_time += Duration::from_secs(5);
        assert_eq!(campaign(&a), reference);
        a.records[0].inconsistencies += 1;
        assert_ne!(campaign(&a), reference);
    }

    #[test]
    fn diversity_fingerprint_sees_the_average_bits() {
        let sources: Vec<String> = vec![
            "void compute(double x) { double comp = 0.0; comp = x * 2.0; }".into(),
            "void compute(double y) { double comp = 1.0; comp = y + 2.0; }".into(),
        ];
        let mut report = DiversityReport::measure(&sources, 1, 10);
        let reference = diversity(&report);
        report.avg_codebleu = f64::from_bits(report.avg_codebleu.to_bits() ^ 1);
        assert_ne!(diversity(&report), reference);
    }
}
