//! The correctness gate: every drained report must be byte-identical
//! to a solo [`SessionPipeline`] replay of exactly the events the
//! daemon admitted for that session (shed batches excluded).

use crate::drive::{Outcome, Round};
use crate::spec::Inputs;
use latch_systems::session::{SessionPipeline, SessionReport};
use std::collections::HashMap;

pub struct Gate {
    scrub_interval: u64,
    /// `(session index, admitted batches)` → the solo replay's report.
    cache: HashMap<(usize, Vec<usize>), (Vec<u8>, SessionReport)>,
}

/// Per-run totals read from the reports the gate accepted.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Counts {
    pub events: u64,
    pub selected: u64,
    pub checks: u64,
    pub resolved_tlb: u64,
    pub coarse_hits: u64,
    pub dift_touching: u64,
    pub mem_taint_writes: u64,
    pub violations: u64,
}

impl Gate {
    pub fn new(scrub_interval: u64) -> Self {
        Gate {
            scrub_interval,
            cache: HashMap::new(),
        }
    }

    /// Checks one round and returns the totals of its reports.
    pub fn check(&mut self, inputs: &Inputs, round: &Round) -> Result<Counts, String> {
        let mut admitted: Vec<Vec<usize>> = vec![Vec::new(); inputs.sessions.len()];
        for r in round.recs.iter().filter(|r| r.outcome == Outcome::Admitted) {
            admitted[inputs.batches[r.batch].session].push(r.batch);
        }
        let mut counts = Counts::default();
        let mut seen = 0usize;
        for (s, mut batches) in admitted.into_iter().enumerate() {
            batches.sort_by_key(|&b| inputs.batches[b].start);
            let id = inputs.sessions[s].id;
            let got = round.reports.get(&id);
            if batches.is_empty() {
                if got.is_some() {
                    return Err(format!(
                        "session {id}: report for a session with nothing admitted"
                    ));
                }
                continue;
            }
            seen += 1;
            let scrub = self.scrub_interval;
            let (want, report) =
                self.cache
                    .entry((s, batches))
                    .or_insert_with_key(|(_, batches)| {
                        let mut solo = SessionPipeline::new(scrub);
                        for &b in batches {
                            for ev in inputs.events(b) {
                                solo.apply(ev);
                            }
                        }
                        let report = solo.report();
                        (report.encode(), report)
                    });
            match got {
                Some(bytes) if bytes == want => {}
                Some(_) => {
                    return Err(format!(
                        "session {id}: report differs from a solo replay of its admitted events"
                    ))
                }
                None => return Err(format!("session {id}: admitted events but no report")),
            }
            counts.events += report.events;
            counts.selected += report.selected;
            counts.checks += report.checks.checks;
            counts.resolved_tlb += report.checks.resolved_tlb;
            counts.coarse_hits += report.checks.coarse_hits;
            counts.dift_touching += report.dift.instrs_touching_taint;
            counts.mem_taint_writes += report.dift.mem_taint_writes;
            counts.violations += report.dift.violations;
        }
        if round.reports.len() != seen {
            return Err(format!(
                "{} reports for {seen} sessions with admitted events",
                round.reports.len()
            ));
        }
        Ok(counts)
    }
}
