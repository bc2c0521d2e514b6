//! Greedy split/merge fragmentation (paper §5.3).
//!
//! The exact DP is quadratic in the number of value chunks; for large
//! databases (and for *incremental* adaptation as the workload drifts) the
//! paper proposes a greedy fragmenter that maintains a live set of cut
//! points and, at user-specified intervals:
//!
//! * **splits** the fragment whose best split point yields the largest error
//!   reduction, while the fragment count is below `maxFrags`
//!   (§5.3.1 / Algorithm 2), and
//! * **merges** the adjacent *triple* of fragments that re-cut into two with
//!   the smallest error increase once the cap is reached (§5.3.2), freeing
//!   the split procedure to chase the shifted workload. Merging three-into-
//!   two (rather than two-into-one) is what lets a boundary *move* between
//!   neighbours (paper Fig. 4).
//!
//! Candidate cut points are the chunk boundaries of the current value
//! function: the optimal split of a piecewise-constant function always falls
//! on a value change (the paper's Appendix C optimization).

use nashdb_obs::Metric;

use super::prefix::{ChunkPrefix, Point};
use super::Fragmentation;
use crate::value::Chunk;

/// Minimum *absolute* error reduction for a split to be applied (paper
/// footnote 2: "one might wish only to split a fragment if the reduction …
/// is sufficiently large"). Zero: float-residue churn is guarded
/// separately by a relative epsilon, which scales with the fragment's own
/// error so the threshold works at any value magnitude (per-tuple values
/// can be ~1e-8 when prices are split across hundred-million-tuple scans).
pub(super) const MIN_SPLIT_GAIN: f64 = 0.0;

/// Relative gain floor: a split must reduce its fragment's error by more
/// than this fraction to be considered genuine rather than float residue.
pub(super) const REL_EPSILON: f64 = 1e-9;

/// How the fragmenter reclaims fragments once at the cap.
///
/// The paper argues (Fig. 4) for merging three adjacent fragments into two:
/// a pairwise merge can never *move* a boundary between neighbours, so a
/// drifted workload strands cuts where the old hot spot was. The pairwise
/// variant is kept for the ablation that quantifies that argument.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum MergePolicy {
    /// Merge the best adjacent triple into two fragments (§5.3.2).
    #[default]
    TripleToPair,
    /// Merge the best adjacent pair into one fragment (the strawman of
    /// paper Fig. 4).
    PairToOne,
}

impl MergePolicy {
    /// Adjacent fragments one merge consumes; it leaves one fewer.
    pub(super) fn window(self) -> usize {
        match self {
            MergePolicy::TripleToPair => 3,
            MergePolicy::PairToOne => 2,
        }
    }
}

/// The incremental greedy fragmenter.
#[derive(Debug, Clone)]
pub struct GreedyFragmenter {
    boundaries: Vec<u64>,
    max_frags: usize,
    /// Minimum *relative* improvement for a change to be applied: a split
    /// must cut its fragment's error, and a merge+split round the total
    /// error, by more than this fraction. The paper's footnote 2 suggests
    /// exactly this guard; it keeps sampling noise in the value window from
    /// wandering boundaries (and re-shipping every replica of the touched
    /// fragments) when nothing real has changed.
    min_relative_gain: f64,
    merge_policy: MergePolicy,
}

/// What a [`GreedyFragmenter::step`] did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StepOutcome {
    /// A fragment was split (and possibly a window merged first), or an
    /// over-cap fragmentation shed a fragment.
    Changed,
    /// No profitable change existed; the fragmentation is stable for this
    /// value function.
    Stable,
}

impl GreedyFragmenter {
    /// Starts with a single fragment spanning the table.
    ///
    /// # Panics
    /// Panics if `table_len` is zero or `max_frags` is zero.
    pub fn new(table_len: u64, max_frags: usize) -> Self {
        Self::from_fragmentation(Fragmentation::single(table_len), max_frags)
    }

    /// Adopts an existing fragmentation (e.g. carried over from the previous
    /// reconfiguration period). One with more than `max_frags` fragments is
    /// merged down, one fragment per round, before any split is tried.
    ///
    /// # Panics
    /// Panics if `max_frags` is zero.
    pub fn from_fragmentation(frag: Fragmentation, max_frags: usize) -> Self {
        assert!(max_frags > 0, "need at least one fragment");
        GreedyFragmenter {
            boundaries: frag.boundaries,
            max_frags,
            min_relative_gain: 0.0,
            merge_policy: MergePolicy::default(),
        }
    }

    /// Requires every applied change to improve its target error by at
    /// least this fraction (e.g. `0.05` = 5 %).
    pub fn with_min_relative_gain(mut self, frac: f64) -> Self {
        self.min_relative_gain = frac.max(0.0);
        self
    }

    /// Selects the merge variant (the pairwise one exists for the Fig. 4
    /// ablation; the default is the paper's three-into-two).
    pub fn with_merge_policy(mut self, policy: MergePolicy) -> Self {
        self.merge_policy = policy;
        self
    }

    /// Current fragment count.
    pub fn len(&self) -> usize {
        self.boundaries.len() - 1
    }

    /// Always false: a fragmenter covers its table with at least one
    /// fragment by construction.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// The fragment cap.
    pub fn max_frags(&self) -> usize {
        self.max_frags
    }

    /// A snapshot of the current fragmentation.
    pub fn fragmentation(&self) -> Fragmentation {
        Fragmentation::from_boundaries(self.boundaries.clone())
    }

    /// One maintenance round against the current value function:
    /// below the cap, apply the best available split; at the cap, merge the
    /// best adjacent triple into two and re-split — atomically, reverting
    /// if the merge+split pair does not reduce total error (so the greedy
    /// trajectory is monotone and cannot oscillate at the cap); above the
    /// cap (an adopted fragmentation), merge without re-splitting.
    ///
    /// Malformed chunks, or chunks covering a different table than this
    /// fragmenter, leave the fragmentation untouched and report
    /// [`StepOutcome::Stable`]; debug builds assert so tests catch the
    /// contract violation.
    pub fn step(&mut self, chunks: &[Chunk]) -> StepOutcome {
        self.start(chunks)
            .map_or(StepOutcome::Stable, |mut run| run.round())
    }

    /// Runs up to `rounds` steps, stopping early once stable. Returns the
    /// number of rounds that changed the fragmentation.
    pub fn run(&mut self, chunks: &[Chunk], rounds: usize) -> usize {
        let watch = nashdb_obs::stopwatch();
        let mut changed = 0;
        if rounds > 0 {
            if let Some(mut run) = self.start(chunks) {
                while changed < rounds && run.round() == StepOutcome::Changed {
                    changed += 1;
                }
            }
        }
        watch.record(Metric::FragmentGreedyNs);
        nashdb_obs::counter_add(Metric::FragmentGreedyRuns, 1);
        nashdb_obs::counter_add(Metric::FragmentGreedyChanges, changed as u64);
        changed
    }

    /// Validates `chunks` against this fragmenter's table, resolves every
    /// boundary against them once and scores every current fragment once;
    /// the rounds of one `run` (or the single round of a `step`) then share
    /// the prefix sums, the resolved ends and the scores.
    fn start(&mut self, chunks: &[Chunk]) -> Option<Run<'_>> {
        let prefix = match ChunkPrefix::new(chunks) {
            Ok(prefix) => prefix,
            Err(e) => {
                debug_assert!(false, "malformed value chunks: {e:?}");
                return None;
            }
        };
        let table_len = self.boundaries.last().map_or(0, |&b| b);
        debug_assert_eq!(
            prefix.table_len(),
            table_len,
            "value function covers a different table"
        );
        if prefix.table_len() != table_len {
            return None;
        }
        let rel_floor = REL_EPSILON + self.min_relative_gain;
        let ends = prefix.points(&self.boundaries);
        let frags = ends
            .windows(2)
            .map(|w| score_fragment(&prefix, rel_floor, &w[0], &w[1]))
            .collect();
        Some(Run {
            g: self,
            prefix,
            rel_floor,
            ends,
            frags,
            merges: None,
        })
    }
}

/// A cached choice: `(cut point, gain or error delta)`.
type Candidate = Option<(u64, f64)>;

/// One fragment's cached score.
#[derive(Debug, Clone, Copy)]
struct Scored {
    /// `Err(f)` (Eq. 4).
    err: f64,
    /// The fragment's best split `(point, gain)`, present only if the gain
    /// clears both floors.
    split: Candidate,
}

/// The state the rounds of one run share: every score is a pure function
/// of the prefix sums and the ends it spans, so a round selects from
/// the cache with the full rescan's scan order and strict comparisons, and
/// [`Run::recut`] re-derives only the entries whose endpoints moved. Total
/// errors are re-folded from `frags` in fragment order rather than kept as
/// a running total, so every decision is bit-identical to
/// [`reference::greedy_round`](super::reference::greedy_round).
struct Run<'a> {
    g: &'a mut GreedyFragmenter,
    prefix: ChunkPrefix,
    /// `REL_EPSILON + min_relative_gain`.
    rel_floor: f64,
    /// `g.boundaries` resolved against `prefix`, one point per boundary:
    /// every score reads its ends' sums here instead of searching for them.
    ends: Vec<Point>,
    /// Per fragment.
    frags: Vec<Scored>,
    /// Per merge window (`window()` adjacent fragments, by first fragment):
    /// its best re-cut into one fragment fewer and the error that costs.
    /// Built the first time a round needs to merge; a run that only splits
    /// never pays for it.
    merges: Option<Vec<Candidate>>,
}

impl Run<'_> {
    fn round(&mut self) -> StepOutcome {
        let (len, width) = (self.g.len(), self.g.merge_policy.window());
        if len > self.g.max_frags {
            match self.pick_merge() {
                Some((s, point)) => self.merge(s, point),
                // Two fragments under a cap of one: only the whole table fits.
                None => self.recut(0, len, &[]),
            }
            return StepOutcome::Changed;
        }
        if len < self.g.max_frags {
            let Some((idx, point)) = self.pick_split() else {
                return StepOutcome::Stable;
            };
            self.recut(idx, 1, &[point]);
            return StepOutcome::Changed;
        }

        // At the cap: merge the cheapest window, spend the freed fragment
        // on the best split, and keep the pair only if total error fell.
        let Some((s, point)) = self.pick_merge() else {
            return StepOutcome::Stable; // fewer fragments than one window
        };
        let before_err = self.total_error();
        let mut merged_away = [0; 2];
        let merged_away = &mut merged_away[..width - 1];
        merged_away.copy_from_slice(&self.g.boundaries[s + 1..s + width]);
        self.merge(s, point);
        let split = self.pick_split();
        if let Some((idx, cut)) = split {
            self.recut(idx, 1, &[cut]);
        }
        let after_err = self.total_error();
        let floor = MIN_SPLIT_GAIN + self.rel_floor * before_err;
        if after_err < before_err - floor {
            return StepOutcome::Changed;
        }
        if let Some((idx, _)) = split {
            self.recut(idx, 2, &[]);
        }
        self.recut(s, width - 1, merged_away);
        StepOutcome::Stable
    }

    fn total_error(&self) -> f64 {
        self.frags.iter().map(|f| f.err).sum()
    }

    /// The globally best split `(fragment index, cut point)`: the largest
    /// gain, the first fragment on ties.
    fn pick_split(&self) -> Option<(usize, u64)> {
        first_best(self.frags.iter().map(|f| f.split), |gain, best| gain > best)
    }

    /// The cheapest merge `(first fragment of the window, replacement cut)`:
    /// the smallest error delta, the first window on ties. `None` with
    /// fewer fragments than one window.
    fn pick_merge(&mut self) -> Option<(usize, u64)> {
        let merges = self.merges.get_or_insert_with(|| {
            let windows = (self.frags.len() + 1).saturating_sub(self.g.merge_policy.window());
            (0..windows)
                .map(|s| {
                    score_merge(
                        &self.prefix,
                        self.g.merge_policy,
                        &self.ends,
                        &self.frags,
                        s,
                    )
                })
                .collect()
        });
        first_best(merges.iter().copied(), |delta, best| delta < best)
    }

    /// Applies the merge [`Run::pick_merge`] chose: a triple keeps the one
    /// cut `point`, a pair none.
    fn merge(&mut self, s: usize, point: u64) {
        let width = self.g.merge_policy.window();
        self.recut(s, width, &[point][..width - 2]);
    }

    /// Replaces fragments `lo..lo + removed` by the `cuts.len() + 1`
    /// fragments that `cuts` divides their union into, resolves the new
    /// cuts, and re-scores exactly what that invalidates: the new fragments
    /// and, once built, the merge windows containing one. A split is
    /// `(idx, 1, [point])`, and every call is undone by the inverse call.
    fn recut(&mut self, lo: usize, removed: usize, cuts: &[u64]) {
        let added = cuts.len() + 1;
        let bounds = &mut self.g.boundaries;
        let old_len = bounds.len() - 1;
        bounds.splice(lo + 1..lo + removed, cuts.iter().copied());
        debug_assert!(bounds[lo..=lo + added].windows(2).all(|w| w[0] < w[1]));
        let prefix = &self.prefix;
        let ends = &mut self.ends;
        ends.splice(lo + 1..lo + removed, cuts.iter().map(|&c| prefix.at(c)));
        self.frags.splice(
            lo..lo + removed,
            ends[lo..=lo + added]
                .windows(2)
                .map(|w| score_fragment(prefix, self.rel_floor, &w[0], &w[1])),
        );
        if let Some(merges) = &mut self.merges {
            // Window `s` spans fragments `s..s + width`, so the ones that
            // saw a replaced fragment start in `lo - (width - 1)..lo +
            // removed`, clipped to the windows that exist; likewise after.
            let policy = self.g.merge_policy;
            let width = policy.window();
            let first = lo.saturating_sub(width - 1);
            let old_end = (lo + removed).min((old_len + 1).saturating_sub(width));
            let new_end = (lo + added).min((self.frags.len() + 1).saturating_sub(width));
            merges.splice(
                first..old_end,
                (first..new_end).map(|s| score_merge(prefix, policy, ends, &self.frags, s)),
            );
        }
    }
}

/// `(index, cut point)` of the first candidate whose score no later one
/// strictly `beats` — the full rescan's scan order and tie-break.
fn first_best(
    candidates: impl Iterator<Item = Candidate>,
    beats: impl Fn(f64, f64) -> bool,
) -> Option<(usize, u64)> {
    let mut best: Option<(usize, u64, f64)> = None;
    for (idx, candidate) in candidates.enumerate() {
        if let Some((point, score)) = candidate {
            if best.is_none_or(|(_, _, b)| beats(score, b)) {
                best = Some((idx, point, score));
            }
        }
    }
    best.map(|(idx, point, _)| (idx, point))
}

/// Scores fragment `[a, b)`: its error and its best split, kept only if the
/// gain clears both an absolute and a magnitude-relative floor — a real
/// reduction, not float residue.
fn score_fragment(prefix: &ChunkPrefix, rel_floor: f64, a: &Point, b: &Point) -> Scored {
    let err = prefix.error_between(a, b);
    let split = if err <= MIN_SPLIT_GAIN {
        None // already uniform; no split can gain enough
    } else {
        best_cut(prefix, a, b, &[]).and_then(|(point, split_err)| {
            let gain = err - split_err;
            (gain > MIN_SPLIT_GAIN && gain > rel_floor * err).then_some((point, gain))
        })
    };
    Scored { err, split }
}

/// Scores the merge window whose first fragment is `s`, its ends read from
/// `ends`.
///
/// Three-into-two (paper §5.3.2): the optimal two-way cut of the triple's
/// span over the chunk boundaries plus the existing cuts `b` and `c` (always
/// legal, so a candidate exists even when no value change falls strictly
/// inside), against the three cached errors. Two-into-one: the error of
/// the union against the two cached errors; the cut reported is the one
/// that goes away.
fn score_merge(
    prefix: &ChunkPrefix,
    policy: MergePolicy,
    ends: &[Point],
    frags: &[Scored],
    s: usize,
) -> Candidate {
    match policy {
        MergePolicy::TripleToPair => {
            let old = frags[s].err + frags[s + 1].err + frags[s + 2].err;
            let (point, new) = best_cut(prefix, &ends[s], &ends[s + 3], &ends[s + 1..s + 3])?;
            Some((point, new - old))
        }
        MergePolicy::PairToOne => {
            let delta =
                prefix.error_between(&ends[s], &ends[s + 2]) - (frags[s].err + frags[s + 1].err);
            Some((ends[s + 1].x, delta))
        }
    }
}

/// The best single cut of `[a, b)`: considers every chunk boundary strictly
/// inside plus `extra` candidates, returning `(point, err_left + err_right)`
/// minimized, the first candidate on ties. `None` if there are no
/// candidates.
///
/// This is the paper's `FindSplit` (Algorithm 2) restricted to value-change
/// points (Appendix C): linear in the number of candidates, each scored in
/// O(1) from the resolved ends and its own sums, read by chunk index.
/// [`reference::best_cut`](super::reference::best_cut) is the same search
/// over raw positions.
fn best_cut(prefix: &ChunkPrefix, a: &Point, b: &Point, extra: &[Point]) -> Option<(u64, f64)> {
    let candidates = ChunkPrefix::bounds_inside(a, b)
        .map(|i| prefix.at_bound(i))
        .chain(extra.iter().copied().filter(|p| p.x > a.x && p.x < b.x));
    let mut best: Option<(u64, f64)> = None;
    for p in candidates {
        let e = prefix.error_between(a, &p) + prefix.error_between(&p, b);
        if best.is_none_or(|(_, be)| e < be) {
            best = Some((p.x, e));
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fragment::{optimal_fragmentation, reference};

    fn chunk(start: u64, end: u64, value: f64) -> Chunk {
        Chunk { start, end, value }
    }

    #[test]
    fn splits_at_value_change() {
        let chunks = vec![chunk(0, 50, 1.0), chunk(50, 100, 5.0)];
        let mut g = GreedyFragmenter::new(100, 4);
        assert_eq!(g.step(&chunks), StepOutcome::Changed);
        assert_eq!(g.fragmentation().boundaries(), &[0, 50, 100]);
        // Error is now zero: further steps are stable.
        assert_eq!(g.step(&chunks), StepOutcome::Stable);
    }

    #[test]
    fn converges_to_optimal_on_staircase() {
        let chunks = vec![
            chunk(0, 10, 1.0),
            chunk(10, 20, 4.0),
            chunk(20, 30, 9.0),
            chunk(30, 40, 2.0),
        ];
        let mut g = GreedyFragmenter::new(40, 4);
        g.run(&chunks, 16);
        let prefix = ChunkPrefix::new(&chunks).unwrap();
        assert!(g.fragmentation().total_error(&prefix) < 1e-9);
        assert_eq!(g.len(), 4);
    }

    #[test]
    fn never_exceeds_cap() {
        let chunks: Vec<Chunk> = (0..20)
            .map(|i| chunk(i * 5, (i + 1) * 5, (i % 7) as f64))
            .collect();
        let mut g = GreedyFragmenter::new(100, 6);
        g.run(&chunks, 64);
        assert!(g.len() <= 6);
        let f = g.fragmentation();
        assert_eq!(f.table_len(), 100);
    }

    #[test]
    fn each_split_reduces_error() {
        let chunks: Vec<Chunk> = (0..16)
            .map(|i| chunk(i * 4, (i + 1) * 4, ((i * 13) % 11) as f64))
            .collect();
        let prefix = ChunkPrefix::new(&chunks).unwrap();
        let mut g = GreedyFragmenter::new(64, 16);
        let mut prev = g.fragmentation().total_error(&prefix);
        while g.step(&chunks) == StepOutcome::Changed {
            let cur = g.fragmentation().total_error(&prefix);
            assert!(cur < prev + 1e-9, "split increased error: {prev} -> {cur}");
            prev = cur;
        }
    }

    /// The paper's Fig. 4 motivation: after a workload shift the greedy
    /// fragmenter must *move* a boundary, which requires the 3-into-2 merge.
    #[test]
    fn merge_enables_adaptation_after_shift() {
        // Old workload: hot region 0..50.
        let old = vec![chunk(0, 50, 5.0), chunk(50, 100, 0.0)];
        let mut g = GreedyFragmenter::new(100, 3);
        g.run(&old, 8);
        assert_eq!(g.fragmentation().boundaries(), &[0, 50, 100]);

        // Shifted workload: hot region 30..80. Reaching the zero-error
        // boundaries {0,30,80,100} with a cap of 3 requires merging a triple
        // back into two so the freed split can land at the new edge.
        let new = vec![chunk(0, 30, 0.0), chunk(30, 80, 5.0), chunk(80, 100, 0.0)];
        let prefix = ChunkPrefix::new(&new).unwrap();
        let before = g.fragmentation().total_error(&prefix);
        g.run(&new, 16);
        let after = g.fragmentation().total_error(&prefix);
        assert!(
            after < before,
            "adaptation failed: error {before} -> {after}"
        );
        assert!(after < 1e-9, "did not converge: residual error {after}");
        assert_eq!(g.fragmentation().boundaries(), &[0, 30, 80, 100]);
    }

    #[test]
    fn tracks_optimal_within_factor_on_random_values() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        for _ in 0..10 {
            let m = rng.gen_range(6..24usize);
            let mut chunks = Vec::new();
            let mut pos = 0u64;
            for _ in 0..m {
                let len = rng.gen_range(1..30u64);
                chunks.push(chunk(pos, pos + len, rng.gen_range(0.0..8.0f64)));
                pos += len;
            }
            let k = rng.gen_range(2..=m.min(8));
            let prefix = ChunkPrefix::new(&chunks).unwrap();
            let opt = optimal_fragmentation(&chunks, k)
                .unwrap()
                .total_error(&prefix);
            let mut g = GreedyFragmenter::new(pos, k);
            g.run(&chunks, 200);
            let greedy = g.fragmentation().total_error(&prefix);
            assert!(
                greedy + 1e-9 >= opt,
                "greedy beat optimal?! {greedy} < {opt}"
            );
            // The paper reports greedy within ~50% of optimal on static
            // workloads; allow generous slack for adversarial random cases.
            assert!(
                greedy <= opt * 4.0 + 1e-6 || greedy - opt < 1e-6,
                "greedy {greedy} far from optimal {opt} (k={k}, m={m})"
            );
        }
    }

    #[test]
    fn stable_on_uniform_values() {
        let chunks = vec![chunk(0, 100, 2.0)];
        let mut g = GreedyFragmenter::new(100, 8);
        assert_eq!(g.step(&chunks), StepOutcome::Stable);
        assert_eq!(g.len(), 1);
    }

    #[test]
    fn cap_of_one_is_inert() {
        let chunks = vec![chunk(0, 50, 1.0), chunk(50, 100, 9.0)];
        let mut g = GreedyFragmenter::new(100, 1);
        assert_eq!(g.step(&chunks), StepOutcome::Stable);
        assert_eq!(g.len(), 1);
    }

    /// The Fig. 4 ablation: after the hot range moves, the pairwise-merge
    /// variant cannot relocate its boundaries as well as three-into-two.
    #[test]
    fn pairwise_merge_adapts_worse_than_triple() {
        let old = vec![chunk(0, 50, 5.0), chunk(50, 100, 0.0)];
        let new = vec![chunk(0, 30, 0.0), chunk(30, 80, 5.0), chunk(80, 100, 0.0)];
        let prefix = ChunkPrefix::new(&new).unwrap();
        let run_with = |policy: MergePolicy| {
            let mut g = GreedyFragmenter::new(100, 3).with_merge_policy(policy);
            g.run(&old, 8);
            // Only a couple of adaptation rounds: the drifted regime where
            // merge choice matters (both converge eventually).
            g.step(&new);
            g.fragmentation().total_error(&prefix)
        };
        let triple = run_with(MergePolicy::TripleToPair);
        let pair = run_with(MergePolicy::PairToOne);
        assert!(
            triple <= pair + 1e-12,
            "triple {triple} should adapt at least as fast as pair {pair}"
        );
    }

    #[test]
    fn adopting_existing_fragmentation() {
        let f = Fragmentation::from_boundaries(vec![0, 10, 100]);
        let g = GreedyFragmenter::from_fragmentation(f.clone(), 4);
        assert_eq!(g.fragmentation(), f);
    }

    /// The index-read scoring against the search-per-candidate reference,
    /// bit for bit, over every range of a table with 1-tuple chunks, equal
    /// neighbours and zero values: `best_cut` with no extra point and with
    /// every pair of interior ones (on and off chunk bounds), and
    /// `score_fragment`, on every range up to `table_len`; `fragment_stats`
    /// on every three-fragment cover and on the one-tuple fragmentation.
    #[test]
    fn resolved_scores_equal_reference_bits() {
        use crate::fragment::{fragment_stats, Fragmentation};
        let chunks = vec![
            chunk(0, 1, 2.5),
            chunk(1, 4, 2.5),
            chunk(4, 5, 0.0),
            chunk(5, 9, 0.7),
            chunk(9, 10, 3.1),
            chunk(10, 13, 0.0),
            chunk(13, 14, 1.3),
        ];
        let prefix = ChunkPrefix::new(&chunks).unwrap();
        let len = prefix.table_len();
        let bits = |c: Option<(u64, f64)>| c.map(|(p, e)| (p, e.to_bits()));
        for a in 0..len {
            for b in a + 1..=len {
                let (pa, pb) = (prefix.at(a), prefix.at(b));
                assert_eq!(
                    bits(best_cut(&prefix, &pa, &pb, &[])),
                    bits(reference::best_cut(&prefix, a, b, &[])),
                    "best_cut {a}..{b}"
                );
                for x in a + 1..b {
                    for y in x + 1..b {
                        let extra = [prefix.at(x), prefix.at(y)];
                        assert_eq!(
                            bits(best_cut(&prefix, &pa, &pb, &extra)),
                            bits(reference::best_cut(&prefix, a, b, &[x, y])),
                            "best_cut {a}..{b} with {x}, {y}"
                        );
                    }
                }
                for rel_floor in [REL_EPSILON, REL_EPSILON + 0.05] {
                    let got = score_fragment(&prefix, rel_floor, &pa, &pb);
                    let err = prefix.error(a, b);
                    let split = (err > MIN_SPLIT_GAIN)
                        .then(|| reference::best_cut(&prefix, a, b, &[]))
                        .flatten()
                        .and_then(|(point, split_err)| {
                            let gain = err - split_err;
                            (gain > MIN_SPLIT_GAIN && gain > rel_floor * err)
                                .then_some((point, gain))
                        });
                    assert_eq!(got.err.to_bits(), err.to_bits(), "err {a}..{b}");
                    assert_eq!(bits(got.split), bits(split), "split {a}..{b}");
                }
            }
        }
        let mut covers: Vec<Vec<u64>> = vec![(0..=len).collect()];
        for x in 1..len {
            for y in x + 1..len {
                covers.push(vec![0, x, y, len]);
            }
        }
        for cover in covers {
            let frag = Fragmentation::from_boundaries(cover);
            for s in fragment_stats(&frag, &chunks).unwrap() {
                let (a, b) = (s.range.start, s.range.end);
                assert_eq!(
                    s.value.to_bits(),
                    prefix.sum(a, b).to_bits(),
                    "value {a}..{b}"
                );
                assert_eq!(
                    s.error.to_bits(),
                    prefix.error(a, b).to_bits(),
                    "error {a}..{b}"
                );
            }
        }
    }

    /// Runs `g` over `sets` in order, `rounds` rounds each, three ways — one
    /// `run`, `rounds` calls of `step`, and the full-rescan oracle — and
    /// demands identical boundaries and change counts after every set.
    fn assert_matches_reference(mut g: GreedyFragmenter, sets: &[Vec<Chunk>], rounds: usize) {
        let mut stepped = g.clone();
        let mut oracle = g.boundaries.clone();
        for (n, chunks) in sets.iter().enumerate() {
            let prefix = ChunkPrefix::new(chunks).unwrap();
            let expect = (0..rounds)
                .take_while(|_| {
                    reference::greedy_round(
                        &mut oracle,
                        &prefix,
                        g.max_frags,
                        g.min_relative_gain,
                        g.merge_policy,
                    ) == StepOutcome::Changed
                })
                .count();
            assert_eq!(g.run(chunks, rounds), expect, "set {n}: run changes");
            assert_eq!(g.boundaries, oracle, "set {n}: run boundaries");
            let steps = (0..rounds)
                .filter(|_| stepped.step(chunks) == StepOutcome::Changed)
                .count();
            assert_eq!(steps, expect, "set {n}: step changes");
            assert_eq!(stepped.boundaries, oracle, "set {n}: step boundaries");
        }
    }

    /// A hot spot of width 20 at `at` over a lukewarm ramp on a 120-tuple
    /// table: value changes at both table edges and throughout.
    fn hot_spot(at: u64) -> Vec<Chunk> {
        let mut cuts: Vec<u64> = (0..=12).map(|i| i * 10).chain([at, at + 20]).collect();
        cuts.sort_unstable();
        cuts.dedup();
        cuts.windows(2)
            .map(|w| {
                let hot = if w[0] >= at && w[1] <= at + 20 {
                    9.0
                } else {
                    0.0
                };
                chunk(w[0], w[1], hot + (w[0] / 10 % 4) as f64 * 0.37)
            })
            .collect()
    }

    /// The cache-splice index arithmetic against the oracle on the shapes
    /// where it clips: the hot spot sits on the first fragment, sweeps to
    /// the last and back, under caps where the table is one merge window
    /// (`len() == 3`), one more, and several, for both window widths.
    #[test]
    fn cached_rounds_match_full_rescan() {
        // The comb's equal teeth tie every candidate, pinning the scan order.
        let comb = (0..12).map(|i| chunk(i * 10, (i + 1) * 10, (i % 2) as f64));
        let mut sets: Vec<Vec<Chunk>> = [0, 5, 45, 100, 95, 0].map(hot_spot).into();
        sets.insert(3, comb.collect());
        for policy in [MergePolicy::TripleToPair, MergePolicy::PairToOne] {
            for cap in [1, 2, 3, 4, 7] {
                for (gain, rounds) in [(0.0, 1), (0.0, 5), (0.05, 40)] {
                    let g = GreedyFragmenter::new(120, cap)
                        .with_merge_policy(policy)
                        .with_min_relative_gain(gain);
                    assert_matches_reference(g, &sets, rounds);
                }
            }
        }
    }

    /// An adopted fragmentation with more fragments than the cap merges
    /// down one fragment per round — no re-split — until it fits, and is an
    /// ordinary at-cap fragmenter from then on.
    #[test]
    fn adopted_fragmentation_over_cap_shrinks_to_cap() {
        let chunks = hot_spot(45);
        let prefix = ChunkPrefix::new(&chunks).unwrap();
        let adopted = Fragmentation::from_boundaries((0..=10).map(|i| i * 12).collect());
        for policy in [MergePolicy::TripleToPair, MergePolicy::PairToOne] {
            for cap in [1, 2, 4] {
                let mut g = GreedyFragmenter::from_fragmentation(adopted.clone(), cap)
                    .with_merge_policy(policy);
                assert_matches_reference(g.clone(), &[chunks.clone(), hot_spot(5)], 40);
                for len in (cap..10).rev() {
                    assert_eq!(g.step(&chunks), StepOutcome::Changed);
                    assert_eq!(g.len(), len, "{policy:?}, cap {cap}");
                    let f = g.fragmentation();
                    assert_eq!(f.table_len(), 120);
                    assert!(f.boundaries().windows(2).all(|w| w[0] < w[1]));
                }
                // Back under the cap: rounds re-cut but never grow past it,
                // and never raise the error.
                let mut prev = g.fragmentation().total_error(&prefix);
                while g.step(&chunks) == StepOutcome::Changed {
                    assert_eq!(g.len(), cap);
                    let cur = g.fragmentation().total_error(&prefix);
                    assert!(cur < prev, "{policy:?}, cap {cap}: {prev} -> {cur}");
                    prev = cur;
                }
                assert_eq!(g.len(), cap);
            }
        }
    }
}
