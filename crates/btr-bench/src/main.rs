//! Prints [`btr_bench::tables`]; redirect into `tests/golden/tables.txt` to
//! regenerate the golden file.

use std::io::{ErrorKind, Write};

fn main() -> std::io::Result<()> {
    let mut out = std::io::stdout().lock();
    match out
        .write_all(btr_bench::tables().as_bytes())
        .and_then(|()| out.flush())
    {
        // `btr-bench | head` closing the pipe early is not a failure.
        Err(e) if e.kind() == ErrorKind::BrokenPipe => Ok(()),
        other => other,
    }
}
