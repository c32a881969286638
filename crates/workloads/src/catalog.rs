//! The accelerator catalog: the paper's three evaluated accelerators
//! (§IV) and their Table I load matrix, defined once.
//!
//! [`UseCase`] is the key. For each accelerator the catalog holds its
//! label in the paper's tables, the prefix of its function names, its
//! bitstream id, the request profile Tables II–IV price it with, and its
//! Table I rates at every load level the paper tests. No other module
//! matches on [`UseCase`] or [`LoadLevel`].

use std::fmt;

use crate::{mm, pipecnn, sobel, CnnNetwork, RequestProfile};

/// The three benchmark functions of the evaluation, in Table I's order.
///
/// The discriminants are stable: scenario seeds are derived from them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum UseCase {
    /// Spector Sobel edge detector.
    Sobel = 1,
    /// Spector matrix multiply.
    Mm = 2,
    /// PipeCNN running AlexNet.
    AlexNet = 3,
}

/// Load levels of Table I.
///
/// The discriminants are stable: scenario seeds are derived from them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LoadLevel {
    /// "Low load".
    Low = 1,
    /// "Medium load".
    Medium = 2,
    /// "High load".
    High = 3,
}

impl UseCase {
    /// Every use case, in Table I's order.
    pub const ALL: [UseCase; 3] = [UseCase::Sobel, UseCase::Mm, UseCase::AlexNet];

    /// The label in the paper's tables, the function-name prefix
    /// (`sobel-1`, …) and the bitstream id.
    fn names(self) -> (&'static str, &'static str, &'static str) {
        match self {
            UseCase::Sobel => ("Sobel", "sobel", sobel::SOBEL_BITSTREAM),
            UseCase::Mm => ("MM", "mm", mm::MM_BITSTREAM),
            UseCase::AlexNet => ("AlexNet", "alexnet", pipecnn::PIPECNN_BITSTREAM),
        }
    }

    /// The prefix of this use case's function names (`sobel-1`, …).
    pub fn function_prefix(self) -> &'static str {
        self.names().1
    }

    /// The id of the bitstream this use case's functions need.
    pub fn bitstream_id(self) -> &'static str {
        self.names().2
    }

    /// The per-request profile the paper's Tables II–IV run with:
    /// 1920×1080 Sobel frames (the largest Fig. 4(b) point), 448×448 MM
    /// matrices (EXPERIMENTS.md, deviation D1), the standard 227×227×3
    /// AlexNet.
    pub fn request_profile(self) -> RequestProfile {
        match self {
            UseCase::Sobel => sobel::request_profile(1920, 1080),
            UseCase::Mm => mm::request_profile(448),
            UseCase::AlexNet => CnnNetwork::alexnet().request_profile(),
        }
    }

    /// The load levels Table I defines for this use case, lowest first.
    pub fn levels(self) -> impl Iterator<Item = LoadLevel> {
        LoadLevel::ALL
            .into_iter()
            .filter(move |&level| table1_rates(self, level).is_some())
    }
}

impl fmt::Display for UseCase {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.names().0)
    }
}

impl LoadLevel {
    /// The three load levels, lowest first.
    pub const ALL: [LoadLevel; 3] = [LoadLevel::Low, LoadLevel::Medium, LoadLevel::High];
}

impl fmt::Display for LoadLevel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            LoadLevel::Low => "Low Load",
            LoadLevel::Medium => "Medium Load",
            LoadLevel::High => "High Load",
        })
    }
}

/// Table I: requests per second sent to each of the five functions.
/// Returns `None` for the configurations the paper does not test
/// (AlexNet low load).
pub fn table1_rates(use_case: UseCase, level: LoadLevel) -> Option<[f64; 5]> {
    Some(match (use_case, level) {
        (UseCase::Sobel, LoadLevel::Low) => [20.0, 15.0, 10.0, 5.0, 5.0],
        (UseCase::Sobel, LoadLevel::Medium) => [35.0, 30.0, 25.0, 20.0, 15.0],
        (UseCase::Sobel, LoadLevel::High) => [60.0, 50.0, 35.0, 30.0, 15.0],
        (UseCase::Mm, LoadLevel::Low) => [28.0, 21.0, 14.0, 7.0, 7.0],
        (UseCase::Mm, LoadLevel::Medium) => [49.0, 42.0, 35.0, 28.0, 21.0],
        (UseCase::Mm, LoadLevel::High) => [84.0, 70.0, 49.0, 42.0, 21.0],
        (UseCase::AlexNet, LoadLevel::Medium) => [6.0, 3.0, 3.0, 3.0, 3.0],
        (UseCase::AlexNet, LoadLevel::High) => [9.0, 9.0, 6.0, 6.0, 3.0],
        (UseCase::AlexNet, LoadLevel::Low) => return None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_matches_the_paper() {
        assert_eq!(
            table1_rates(UseCase::Sobel, LoadLevel::High),
            Some([60.0, 50.0, 35.0, 30.0, 15.0])
        );
        assert_eq!(
            table1_rates(UseCase::Mm, LoadLevel::Low),
            Some([28.0, 21.0, 14.0, 7.0, 7.0])
        );
        assert_eq!(
            table1_rates(UseCase::AlexNet, LoadLevel::Medium),
            Some([6.0, 3.0, 3.0, 3.0, 3.0])
        );
        assert_eq!(table1_rates(UseCase::AlexNet, LoadLevel::Low), None);
    }

    #[test]
    fn bitstream_ids_match_the_workload_constructors() {
        let built = [
            sobel::bitstream(),
            mm::bitstream(),
            CnnNetwork::alexnet().bitstream(),
        ];
        for (use_case, bitstream) in UseCase::ALL.into_iter().zip(built) {
            assert_eq!(use_case.bitstream_id(), bitstream.id(), "{use_case}");
        }
    }

    #[test]
    fn levels_are_the_ones_table1_defines() {
        let levels = |u: UseCase| u.levels().collect::<Vec<_>>();
        assert_eq!(levels(UseCase::Sobel), LoadLevel::ALL);
        assert_eq!(levels(UseCase::Mm), LoadLevel::ALL);
        assert_eq!(
            levels(UseCase::AlexNet),
            [LoadLevel::Medium, LoadLevel::High]
        );
    }

    #[test]
    fn labels_are_the_papers() {
        let labels = UseCase::ALL.map(|u| u.to_string());
        assert_eq!(labels, ["Sobel", "MM", "AlexNet"]);
        assert_eq!(LoadLevel::Medium.to_string(), "Medium Load");
    }
}
