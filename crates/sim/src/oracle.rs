//! The shadow oracle: a brute-force model of *acknowledged* state that
//! every simulated query answer is checked against.
//!
//! The oracle tracks, per trajectory id, what the system has promised:
//!
//! * **Certain** — the write was acknowledged (or the delete confirmed),
//!   so the id's state is exactly known.
//! * **Uncertain** — a write failed *ambiguously* (e.g. a sharded write
//!   that timed out after the leader may have logged it: at-least-once
//!   semantics). The oracle keeps every admissible state the id could be
//!   in; the system is allowed to answer from any one of them, but from
//!   nothing else.
//!
//! Verification is **exact-or-honestly-degraded**: a non-degraded answer
//! must be bitwise right — when no id is uncertain, the returned distance
//! multiset must equal the brute-force top-k's, computed with the same
//! [`MeasureParams::distance`] kernels the index uses, for all six
//! measures. With uncertainty in play the rules relax only as far as the
//! uncertainty forces:
//!
//! 1. every returned hit's distance must bitwise match some admissible
//!    state of its id (no invented answers, ever — this one holds even
//!    for degraded answers);
//! 2. every *certainly present* id closer than the returned k-th must be
//!    in the answer (no silent omissions);
//! 3. the answer must not be short while certain matches remain.
//!
//! A `degraded` answer (the coordinator *said* it failed shards) is
//! checked against rule 1 plus well-formedness only: honest degradation
//! is a contract, not a bug.

use repose_distance::{Measure, MeasureParams};
use repose_model::Point;
use repose_rptrie::Hit;
use std::collections::{BTreeMap, HashSet};

/// What the oracle knows about one trajectory id.
#[derive(Debug, Clone)]
enum IdState {
    /// Acknowledged present with exactly these points.
    Present(Vec<Point>),
    /// Acknowledged absent (deleted, or never written).
    Absent,
    /// Ambiguous: any one of these states is admissible (`None` =
    /// absent). Accumulates across consecutive failed writes.
    Uncertain(Vec<Option<Vec<Point>>>),
}

/// The acknowledged-state model and answer checker (see module docs).
#[derive(Debug)]
pub struct ShadowOracle {
    measure: Measure,
    params: MeasureParams,
    /// BTreeMap for deterministic iteration (event logs and error
    /// messages must be byte-stable run-to-run).
    states: BTreeMap<u64, IdState>,
}

impl ShadowOracle {
    /// An oracle over the deployment's initial dataset, scoring with the
    /// same measure and parameters as the system under test.
    pub fn new(measure: Measure, params: MeasureParams, initial: &[(u64, Vec<Point>)]) -> Self {
        let states = initial
            .iter()
            .map(|(id, pts)| (*id, IdState::Present(pts.clone())))
            .collect();
        ShadowOracle { measure, params, states }
    }

    /// An acknowledged upsert: the id is certainly `points` now.
    pub fn committed_upsert(&mut self, id: u64, points: &[Point]) {
        self.states.insert(id, IdState::Present(points.to_vec()));
    }

    /// An acknowledged delete: the id is certainly absent now.
    pub fn committed_delete(&mut self, id: u64) {
        self.states.insert(id, IdState::Absent);
    }

    /// A failed upsert that may still have been applied: the id is now
    /// either whatever it was before, or `points`.
    pub fn uncertain_upsert(&mut self, id: u64, points: &[Point]) {
        let mut options = self.admissible(id);
        options.push(Some(points.to_vec()));
        self.states.insert(id, IdState::Uncertain(options));
    }

    /// A failed delete that may still have been applied.
    pub fn uncertain_delete(&mut self, id: u64) {
        let mut options = self.admissible(id);
        options.push(None);
        self.states.insert(id, IdState::Uncertain(options));
    }

    /// Whether any id is currently in an uncertain state.
    pub fn has_uncertainty(&self) -> bool {
        self.states
            .values()
            .any(|s| matches!(s, IdState::Uncertain(_)))
    }

    /// Every state `id` could admissibly be in right now.
    fn admissible(&self, id: u64) -> Vec<Option<Vec<Point>>> {
        match self.states.get(&id) {
            None | Some(IdState::Absent) => vec![None],
            Some(IdState::Present(p)) => vec![Some(p.clone())],
            Some(IdState::Uncertain(opts)) => opts.clone(),
        }
    }

    /// Checks one answer against the model (see module docs for the
    /// rules). `degraded` is the system's own honesty flag.
    pub fn verify(
        &self,
        query: &[Point],
        k: usize,
        hits: &[Hit],
        degraded: bool,
    ) -> Result<(), String> {
        if hits.len() > k {
            return Err(format!("{} hits returned for k={k}", hits.len()));
        }
        for w in hits.windows(2) {
            if Hit::cmp_by_dist_then_id(&w[0], &w[1]) != std::cmp::Ordering::Less {
                return Err(format!(
                    "hits out of order or duplicated: ({}, {:?}) then ({}, {:?})",
                    w[0].id, w[0].dist, w[1].id, w[1].dist
                ));
            }
        }
        let dist = |pts: &[Point]| self.params.distance(self.measure, query, pts);

        // Rule 1: every hit must bitwise match an admissible state.
        for h in hits {
            let admissible = match self.states.get(&h.id) {
                None | Some(IdState::Absent) => false,
                Some(IdState::Present(p)) => dist(p).to_bits() == h.dist.to_bits(),
                Some(IdState::Uncertain(opts)) => opts.iter().any(|o| {
                    o.as_ref()
                        .is_some_and(|p| dist(p).to_bits() == h.dist.to_bits())
                }),
            };
            if !admissible {
                return Err(format!(
                    "hit id={} dist={:?} matches no acknowledged state",
                    h.id, h.dist
                ));
            }
        }
        if degraded {
            // The system admitted the answer is partial; rule 1 plus
            // well-formedness is the whole contract.
            return Ok(());
        }

        let certain: Vec<(u64, f64)> = self
            .states
            .iter()
            .filter_map(|(id, s)| match s {
                IdState::Present(p) => Some((*id, dist(p))),
                _ => None,
            })
            .collect();

        if !self.has_uncertainty() {
            // Fully determined state: the answer must be the brute-force
            // top-k, bitwise (distance multiset — the repo's exactness
            // criterion; ties may legally resolve to either id).
            let mut expected: Vec<f64> = certain.iter().map(|(_, d)| *d).collect();
            expected.sort_by(f64::total_cmp);
            expected.truncate(k);
            let expected_bits: Vec<u64> = expected.iter().map(|d| d.to_bits()).collect();
            let got_bits: Vec<u64> = hits.iter().map(|h| h.dist.to_bits()).collect();
            if got_bits != expected_bits {
                return Err(format!(
                    "distance multiset mismatch: got {:x?}, brute force says {:x?}",
                    got_bits, expected_bits
                ));
            }
            return Ok(());
        }

        // Rules 2 and 3 under uncertainty.
        let kth = if hits.len() < k {
            f64::INFINITY
        } else {
            hits.last().map_or(f64::INFINITY, |h| h.dist)
        };
        let returned: HashSet<u64> = hits.iter().map(|h| h.id).collect();
        for (id, d) in &certain {
            if *d < kth && !returned.contains(id) {
                return Err(format!(
                    "certainly present id={id} (dist {d}) is closer than the \
                     returned k-th ({kth}) but missing"
                ));
            }
        }
        if hits.len() < k.min(certain.len()) {
            return Err(format!(
                "{} hits returned but {} certain matches exist for k={k}",
                hits.len(),
                certain.len()
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn line(y: f64) -> Vec<Point> {
        (0..4).map(|i| Point::new(i as f64, y)).collect()
    }

    fn oracle() -> ShadowOracle {
        ShadowOracle::new(
            Measure::Hausdorff,
            MeasureParams::default(),
            &[(1, line(1.0)), (2, line(2.0)), (3, line(3.0))],
        )
    }

    fn brute(o: &ShadowOracle, q: &[Point], id: u64) -> f64 {
        match o.states.get(&id) {
            Some(IdState::Present(p)) => o.params.distance(o.measure, q, p),
            _ => panic!("id {id} not certainly present"),
        }
    }

    #[test]
    fn exact_answer_passes_and_truncation_fails() {
        let o = oracle();
        let q = line(0.0);
        let hits: Vec<Hit> = [1u64, 2, 3]
            .iter()
            .map(|&id| Hit { id, dist: brute(&o, &q, id) })
            .collect();
        o.verify(&q, 3, &hits, false).expect("exact answer");
        // Dropping the k-th (a truncating merge bug) must be caught.
        let err = o.verify(&q, 3, &hits[..2], false).unwrap_err();
        assert!(err.contains("mismatch"), "{err}");
    }

    #[test]
    fn invented_distances_are_rejected_even_degraded() {
        let o = oracle();
        let q = line(0.0);
        let fake = vec![Hit { id: 1, dist: 0.123456 }];
        assert!(o.verify(&q, 1, &fake, false).is_err());
        assert!(o.verify(&q, 1, &fake, true).is_err(), "degraded is not a license to invent");
    }

    #[test]
    fn degraded_subset_is_accepted() {
        let o = oracle();
        let q = line(0.0);
        // Only the second-best: dishonest as exact, fine as degraded.
        let partial = vec![Hit { id: 2, dist: brute(&o, &q, 2) }];
        assert!(o.verify(&q, 2, &partial, false).is_err());
        o.verify(&q, 2, &partial, true).expect("honest degradation");
    }

    #[test]
    fn uncertain_write_admits_both_worlds() {
        let mut o = oracle();
        let q = line(0.0);
        o.uncertain_upsert(1, &line(0.5));
        // World A: the failed write never applied.
        let old = vec![
            Hit { id: 1, dist: o.params.distance(o.measure, &q, &line(1.0)) },
        ];
        // World B: it applied after all.
        let new = vec![
            Hit { id: 1, dist: o.params.distance(o.measure, &q, &line(0.5)) },
        ];
        o.verify(&q, 1, &old, false).expect("pre-write world admissible");
        o.verify(&q, 1, &new, false).expect("post-write world admissible");
        // World C: neither — still a bug.
        let neither = vec![Hit { id: 1, dist: 0.321 }];
        assert!(o.verify(&q, 1, &neither, false).is_err());
    }

    #[test]
    fn certain_closer_id_cannot_be_omitted_under_uncertainty() {
        let mut o = oracle();
        let q = line(0.0);
        o.uncertain_upsert(9, &line(9.0)); // unrelated uncertainty
        let missing_best = vec![
            Hit { id: 2, dist: brute(&o, &q, 2) },
            Hit { id: 3, dist: brute(&o, &q, 3) },
        ];
        let err = o.verify(&q, 2, &missing_best, false).unwrap_err();
        assert!(err.contains("missing"), "{err}");
    }

    #[test]
    fn delete_then_return_is_rejected() {
        let mut o = oracle();
        let q = line(0.0);
        let d1 = brute(&o, &q, 1);
        o.committed_delete(1);
        let ghost = vec![Hit { id: 1, dist: d1 }];
        assert!(o.verify(&q, 1, &ghost, false).is_err(), "deleted ids must not return");
    }
}
