//! Spatio-temporal top-k search — the extension the paper's Section IX
//! names as future work ("take the temporal dimension into account to
//! enable top-k spatial-temporal trajectory similarity search in
//! distributed settings").
//!
//! Design: each trajectory carries a time span `[start, end]`. A
//! spatio-temporal query adds a [`TimeWindow`]; only trajectories whose
//! span overlaps the window qualify. The spatial RP-Trie machinery is
//! reused unchanged through [`repose_rptrie::RpTrie::search`]'s filter:
//! temporal selection composes with — and never weakens — the spatial
//! pruning bounds.

use crate::{QueryOutcome, Repose, ReposeConfig};
use repose_model::{Dataset, Point, TrajId};
use std::collections::HashMap;

/// A closed time interval (units are the application's choice — epoch
/// seconds in the examples).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TimeWindow {
    /// Window start (inclusive).
    pub start: f64,
    /// Window end (inclusive).
    pub end: f64,
}

impl TimeWindow {
    /// Creates a window; `start` must not exceed `end`.
    pub fn new(start: f64, end: f64) -> Self {
        assert!(start <= end, "window start after end");
        TimeWindow { start, end }
    }

    /// Whether `[a, b]` overlaps this window.
    pub fn overlaps(&self, a: f64, b: f64) -> bool {
        a <= self.end && b >= self.start
    }
}

/// A REPOSE deployment whose trajectories carry time spans, answering
/// top-k queries restricted to a [`TimeWindow`].
#[derive(Debug)]
pub struct TemporalRepose {
    inner: Repose,
    spans: HashMap<TrajId, (f64, f64)>,
}

impl TemporalRepose {
    /// Builds over `dataset` with a span per trajectory id.
    ///
    /// # Panics
    /// When a trajectory id has no span, or a span is inverted.
    pub fn build(
        dataset: &Dataset,
        spans: HashMap<TrajId, (f64, f64)>,
        config: ReposeConfig,
    ) -> Self {
        for t in dataset.trajectories() {
            let (a, b) = spans
                .get(&t.id)
                .unwrap_or_else(|| panic!("missing time span for trajectory {}", t.id));
            assert!(a <= b, "inverted time span for trajectory {}", t.id);
        }
        TemporalRepose { inner: Repose::build(dataset, config), spans }
    }

    /// The underlying spatial deployment.
    pub fn spatial(&self) -> &Repose {
        &self.inner
    }

    /// Distributed top-k among trajectories whose span overlaps `window`.
    pub fn query(&self, query: &[Point], window: TimeWindow, k: usize) -> QueryOutcome {
        let spans = &self.spans;
        self.inner.query_where(query, k, &move |id: TrajId| {
            let (a, b) = spans[&id];
            window.overlaps(a, b)
        })
    }
}

impl Repose {
    /// Distributed top-k restricted to trajectory ids accepted by `filter`
    /// (exposed for attribute predicates; `TemporalRepose` builds on it).
    /// Runs under a per-query shared threshold like [`Repose::query`].
    ///
    /// `filter` runs inside the search's per-thread scratch scope:
    /// id/side-table predicates are the intended shape, and a filter that
    /// does invoke a distance kernel still works but pays a temporary
    /// scratch for that call.
    pub fn query_where(
        &self,
        query: &[Point],
        k: usize,
        filter: &(dyn Fn(TrajId) -> bool + Sync),
    ) -> QueryOutcome {
        self.run(&[query], k, Some(filter)).pop().expect("one outcome per query")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use repose_distance::Measure;
    use repose_model::Trajectory;
    use repose_rptrie::RpTrie;

    fn dataset_with_spans() -> (Dataset, HashMap<TrajId, (f64, f64)>) {
        // 60 trajectories; trajectory i is active in [i, i + 10].
        let mut spans = HashMap::new();
        let mut trajs = Vec::new();
        for i in 0..60u64 {
            let y = (i % 12) as f64;
            trajs.push(Trajectory::new(
                i,
                (0..12).map(|s| Point::new(s as f64 * 0.4, y)).collect(),
            ));
            spans.insert(i, (i as f64, i as f64 + 10.0));
        }
        (Dataset::from_trajectories(trajs), spans)
    }

    fn build(k_parts: usize) -> TemporalRepose {
        build_for(Measure::Hausdorff, k_parts)
    }

    fn build_for(measure: Measure, k_parts: usize) -> TemporalRepose {
        let (d, spans) = dataset_with_spans();
        TemporalRepose::build(
            &d,
            spans,
            ReposeConfig::new(measure)
                .with_partitions(k_parts)
                .with_delta(0.7),
        )
    }

    #[test]
    fn window_restricts_results() {
        let tr = build(4);
        let q: Vec<Point> = (0..12).map(|s| Point::new(s as f64 * 0.4, 0.1)).collect();
        // Only trajectories 0..=15 overlap [5, 15].
        let out = tr.query(&q, TimeWindow::new(5.0, 15.0), 10);
        assert!(!out.hits.is_empty());
        for h in &out.hits {
            assert!(h.id <= 15, "trajectory {} outside the window", h.id);
        }
        // The unrestricted query must rank trajectory 0 (exact y match)
        // first; windowed away from it, the winner changes.
        let far = tr.query(&q, TimeWindow::new(40.0, 45.0), 3);
        assert!(far.hits.iter().all(|h| h.id >= 30));
    }

    /// The filtered search under the shared collector, for every measure:
    /// the answer is brute force over the accepted ids (bitwise distances;
    /// tied ids may resolve either way, Definition 3), and sharing the
    /// threshold never costs verifications over the same filter searched
    /// partition by partition, each under a collector of its own.
    #[test]
    fn windowed_matches_filtered_brute_force() {
        let (d, spans) = dataset_with_spans();
        let q: Vec<Point> = (0..12).map(|s| Point::new(s as f64 * 0.4, 6.3)).collect();
        let w = TimeWindow::new(20.0, 33.0);
        let accepts = |id: TrajId| {
            let (a, b) = spans[&id];
            w.overlaps(a, b)
        };
        let params = repose_distance::MeasureParams::default();
        for measure in Measure::ALL {
            let tr = build_for(measure, 6);
            let got = tr.query(&q, w, 8);
            let truth = |id: TrajId| params.distance(measure, &q, &d.trajectories()[id as usize].points);
            let mut expect: Vec<u64> = (0..d.len() as u64)
                .filter(|&id| accepts(id))
                .map(|id| truth(id).to_bits())
                .collect();
            expect.sort_unstable();
            expect.truncate(8);
            let dists: Vec<u64> = got.hits.iter().map(|h| h.dist.to_bits()).collect();
            assert_eq!(dists, expect, "{measure}");
            for h in &got.hits {
                assert!(accepts(h.id), "{measure}: {} outside the window", h.id);
                assert_eq!(h.dist.to_bits(), truth(h.id).to_bits(), "{measure}");
            }

            let spatial = tr.spatial();
            let unshared: usize = (0..spatial.num_partitions())
                .map(|pi| {
                    let view = spatial.partition_view(pi);
                    let own = repose_distance::SharedTopK::new(8);
                    RpTrie::search(&[(view.trie, view.store)], &q, Some(&accepts), &own)
                        .exact_computations
                })
                .sum();
            assert!(
                got.search.exact_computations <= unshared,
                "{measure}: shared {} > unshared {unshared}",
                got.search.exact_computations
            );
        }
    }

    #[test]
    fn empty_window_yields_nothing() {
        let tr = build(4);
        let q = vec![Point::new(0.0, 0.0)];
        let out = tr.query(&q, TimeWindow::new(1000.0, 2000.0), 5);
        assert!(out.hits.is_empty());
    }

    #[test]
    fn window_overlap_semantics() {
        let w = TimeWindow::new(5.0, 10.0);
        assert!(w.overlaps(0.0, 5.0)); // touching counts
        assert!(w.overlaps(10.0, 20.0));
        assert!(w.overlaps(6.0, 7.0));
        assert!(w.overlaps(0.0, 20.0));
        assert!(!w.overlaps(0.0, 4.9));
        assert!(!w.overlaps(10.1, 12.0));
    }

    #[test]
    #[should_panic(expected = "missing time span")]
    fn missing_span_panics() {
        let (d, mut spans) = dataset_with_spans();
        spans.remove(&3);
        TemporalRepose::build(
            &d,
            spans,
            ReposeConfig::new(Measure::Hausdorff).with_partitions(2).with_delta(0.7),
        );
    }

    #[test]
    #[should_panic(expected = "window start after end")]
    fn inverted_window_panics() {
        TimeWindow::new(5.0, 1.0);
    }
}
