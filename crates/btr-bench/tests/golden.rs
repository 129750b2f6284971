//! The paper's byte-count tables are pinned: `tables()` must equal the
//! committed golden file byte for byte.

const GOLDEN: &str = include_str!("golden/tables.txt");

#[test]
fn tables_match_golden() {
    let got = btr_bench::tables();
    if got == GOLDEN {
        return;
    }
    let (want, have): (Vec<&str>, Vec<&str>) = (GOLDEN.lines().collect(), got.lines().collect());
    let mut diff = String::new();
    for i in 0..want.len().max(have.len()) {
        let (w, h) = (want.get(i), have.get(i));
        if w != h {
            diff += &format!("line {}:\n", i + 1);
            diff += &w.map_or(String::new(), |w| format!("  - {w}\n"));
            diff += &h.map_or(String::new(), |h| format!("  + {h}\n"));
        }
    }
    panic!(
        "tables() differs from tests/golden/tables.txt (- golden, + computed):\n{diff}\
         if the change is intended, regenerate with\n  \
         cargo run --release -p btr-bench > crates/btr-bench/tests/golden/tables.txt"
    );
}
