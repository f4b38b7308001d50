//! The analysis total order as a key: score descending, student id
//! ascending. The engine keeps every ranked student's [`RankKey`] in one
//! `BTreeSet`, so the moving group boundary is a neighbour query.

use mine_core::StudentId;

/// A student's position in the analysis total order.
///
/// Ordering is lexicographic on `(inverted score bits, student id)`:
/// ascending `RankKey` order is exactly the batch pipeline's ranking of
/// score descending with ties broken by ascending id.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct RankKey {
    /// Monotone-inverted IEEE-754 bits: ascending `ibits` is descending
    /// score.
    ibits: u64,
    /// Tie break: ascending student id.
    student: StudentId,
}

impl RankKey {
    /// Builds the key for a finite `score`; `None` for NaN/±∞, which
    /// have no defined rank (the batch comparator treats them as equal
    /// to everything, so such records are unstreamable).
    #[must_use]
    pub fn new(score: f64, student: StudentId) -> Option<Self> {
        if !score.is_finite() {
            return None;
        }
        // Collapse -0.0 onto +0.0: the batch comparator sees them as
        // equal, so they must map to one integer key.
        let score = if score == 0.0 { 0.0 } else { score };
        let bits = score.to_bits();
        // Standard order-preserving map: flip all bits for negatives,
        // flip the sign bit for positives — ascending integer order is
        // then ascending score order. Invert for descending.
        let monotone = if score.is_sign_negative() {
            !bits
        } else {
            bits | 0x8000_0000_0000_0000
        };
        Some(Self {
            ibits: !monotone,
            student,
        })
    }

    /// The student this key ranks.
    #[must_use]
    pub fn student(&self) -> &StudentId {
        &self.student
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeSet;

    fn sid(s: &str) -> StudentId {
        s.parse().unwrap()
    }

    #[test]
    fn rank_order_is_score_descending_then_id_ascending() {
        let ranked: BTreeSet<RankKey> =
            [(5.0, "carol"), (9.0, "bob"), (5.0, "alice"), (-2.0, "dan")]
                .into_iter()
                .map(|(score, id)| RankKey::new(score, sid(id)).unwrap())
                .collect();
        let order: Vec<&str> = ranked.iter().map(|key| key.student().as_str()).collect();
        assert_eq!(order, ["bob", "alice", "carol", "dan"]);
    }

    #[test]
    fn negative_zero_ties_with_positive_zero() {
        assert_eq!(
            RankKey::new(0.0, sid("a")).unwrap(),
            RankKey::new(-0.0, sid("a")).unwrap()
        );
        let a = RankKey::new(0.0, sid("a")).unwrap();
        let b = RankKey::new(-0.0, sid("b")).unwrap();
        assert!(a < b, "tie resolves by id");
    }

    #[test]
    fn non_finite_scores_have_no_key() {
        assert!(RankKey::new(f64::NAN, sid("x")).is_none());
        assert!(RankKey::new(f64::INFINITY, sid("x")).is_none());
        assert!(RankKey::new(f64::NEG_INFINITY, sid("x")).is_none());
    }

    proptest! {
        /// Iterating a `BTreeSet<RankKey>` agrees with sorting (score
        /// desc, id asc) the way `ScoreGroups::split` does.
        #[test]
        fn key_order_matches_full_sort(
            scores in proptest::collection::vec(-1000.0f64..1000.0, 1..60)
        ) {
            let mut ranked = BTreeSet::new();
            let mut oracle: Vec<(StudentId, f64)> = Vec::new();
            for (i, &score) in scores.iter().enumerate() {
                // Truncate every third score to force ties.
                let score = if i % 3 == 0 { score.trunc() } else { score };
                let student = sid(&format!("s{i:03}"));
                ranked.insert(RankKey::new(score, student.clone()).unwrap());
                oracle.push((student, score));
            }
            oracle.sort_by(|a, b| {
                b.1.partial_cmp(&a.1)
                    .unwrap_or(std::cmp::Ordering::Equal)
                    .then_with(|| a.0.cmp(&b.0))
            });
            let order: Vec<&StudentId> = ranked.iter().map(RankKey::student).collect();
            let expected: Vec<&StudentId> = oracle.iter().map(|(student, _)| student).collect();
            prop_assert_eq!(order, expected);
        }
    }
}
