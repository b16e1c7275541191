//! `strgdb` — command-line front end for the STRG-Index video database.

#![forbid(unsafe_code)]

use std::io::Write;

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match strg_cli::run(&argv) {
        // Tolerate a closed pipe (e.g. `strgdb help | head`).
        Ok(out) => {
            let _ = writeln!(std::io::stdout(), "{out}");
        }
        Err(e) => {
            let _ = writeln!(std::io::stderr(), "{e}");
            std::process::exit(1);
        }
    }
}
