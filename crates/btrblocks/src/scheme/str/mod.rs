//! String encoding schemes.

pub mod dict;
pub mod dict_fsst;
pub mod fsst;
pub mod onevalue;
pub mod uncompressed;

use crate::scheme::SchemeCode;
use crate::stats::StringStats;

/// Minimum dictionary-pool size (bytes) before FSST on the dictionary can
/// pay for its symbol table (a serialized table alone costs up to ~2.3 KB).
pub const DICT_FSST_MIN_POOL: usize = 2048;

/// Statistics-based viability filter for string schemes.
pub fn viable(code: SchemeCode, stats: &StringStats) -> bool {
    match code {
        SchemeCode::OneValue => stats.unique_count <= 1,
        // A dictionary needs repetition to pay for itself.
        SchemeCode::Dict => stats.unique_count < stats.count,
        // FSST on the dictionary additionally needs a pool big enough to
        // amortize the symbol table ("applies it to a dictionary when
        // beneficial", paper §2.2).
        SchemeCode::DictFsst => {
            stats.unique_count < stats.count && stats.unique_bytes >= DICT_FSST_MIN_POOL
        }
        // FSST needs actual bytes to find symbols in.
        SchemeCode::Fsst => stats.total_bytes > 0,
        SchemeCode::Uncompressed => true,
        _ => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::StringArena;

    #[test]
    fn dict_needs_repetition() {
        let unique = StringArena::from_strs(&["a", "b", "c"]);
        assert!(!viable(SchemeCode::Dict, &StringStats::collect(&unique)));
        let repeated = StringArena::from_strs(&["a", "a", "b"]);
        assert!(viable(SchemeCode::Dict, &StringStats::collect(&repeated)));
    }

    #[test]
    fn fsst_needs_bytes() {
        let empties = StringArena::from_strs(&["", "", ""]);
        assert!(!viable(SchemeCode::Fsst, &StringStats::collect(&empties)));
        let real = StringArena::from_strs(&["abc", "", "def"]);
        assert!(viable(SchemeCode::Fsst, &StringStats::collect(&real)));
    }
}
