//! Strict command-line parsing for the `coordinator` and `worker`
//! binaries: a flag given without its value, or an argument the binary
//! never reads, exits with code 2 and names it, so a misspelt knob never
//! runs as its default.

use std::fmt::Display;
use std::str::FromStr;

/// The process arguments, each marked once the binary reads it.
pub struct Args {
    bin: &'static str,
    argv: Vec<String>,
    read: Vec<bool>,
}

impl Args {
    /// The arguments of the binary `bin`.
    pub fn new(bin: &'static str) -> Args {
        let argv: Vec<String> = std::env::args().skip(1).collect();
        let read = vec![false; argv.len()];
        Args { bin, argv, read }
    }

    /// Prints `message` under the binary's name and exits with `code`
    /// (2 for a usage error).
    pub fn exit(&self, code: i32, message: impl Display) -> ! {
        eprintln!("{}: {message}", self.bin);
        std::process::exit(code);
    }

    /// Whether the switch `flag` was given.
    pub fn present(&mut self, flag: &str) -> bool {
        let at = self.argv.iter().position(|a| a == flag);
        at.inspect(|&i| self.read[i] = true).is_some()
    }

    /// The value following `flag`, if the flag was given.
    pub fn value(&mut self, flag: &str) -> Option<String> {
        let i = self.argv.iter().position(|a| a == flag)?;
        match self.argv.get(i + 1) {
            Some(value) if !value.starts_with("--") => {
                self.read[i] = true;
                self.read[i + 1] = true;
                Some(value.clone())
            }
            _ => self.exit(2, format_args!("{flag} needs a value")),
        }
    }

    /// The value following `flag` parsed as `T`; a value that does not
    /// parse exits with code 2.
    pub fn parsed<T: FromStr>(&mut self, flag: &str) -> Option<T> {
        let text = self.value(flag)?;
        let parsed = text.parse().ok();
        Some(parsed.unwrap_or_else(|| self.exit(2, format_args!("bad value for {flag}: {text}"))))
    }

    /// Exits with code 2 if any argument was never read. Call after the
    /// last read, before acting on any of them.
    pub fn finish(&self) {
        if let Some(i) = self.read.iter().position(|&read| !read) {
            self.exit(2, format_args!("unrecognised argument {}", self.argv[i]));
        }
    }
}
