//! A tiny, dependency-free command-line option scanner.
//!
//! Supports `--flag`, `--key value`, `--key=value` and positional
//! operands, with typed extraction and "unknown option" detection. This
//! is deliberately minimal — the `eie` tool has a few small subcommands
//! and the workspace builds offline, so a vendored `clap` would be all
//! cost and no benefit.

use std::str::FromStr;

/// Scanner over a subcommand's raw arguments.
pub struct Opts {
    raw: Vec<String>,
}

impl Opts {
    /// Wraps the arguments following the subcommand name.
    pub fn new(raw: Vec<String>) -> Self {
        Self { raw }
    }

    /// True when `--help`/`-h` appears anywhere.
    pub fn wants_help(&self) -> bool {
        self.raw.iter().any(|a| a == "--help" || a == "-h")
    }

    /// Consumes a boolean `--name` flag; returns whether it was present.
    pub fn flag(&mut self, name: &str) -> bool {
        if let Some(i) = self.raw.iter().position(|a| a == name) {
            self.raw.remove(i);
            true
        } else {
            false
        }
    }

    /// Consumes every `--name value` / `--name=value` occurrence, in
    /// command-line order — for repeatable options like
    /// `--model name=path --model name=path`.
    pub fn values(&mut self, names: &[&str]) -> Result<Vec<String>, String> {
        let mut found = Vec::new();
        while let Some(i) = self.raw.iter().position(|a| {
            names.contains(&a.as_str())
                || names
                    .iter()
                    .any(|n| a.starts_with(n) && a[n.len()..].starts_with('='))
        }) {
            let arg = self.raw.remove(i);
            found.push(if let Some(eq) = arg.find('=') {
                arg[eq + 1..].to_string()
            } else {
                if i >= self.raw.len() || self.raw[i].starts_with("--") {
                    return Err(format!("option {arg} needs a value"));
                }
                self.raw.remove(i)
            });
        }
        Ok(found)
    }

    /// Consumes `--name value` or `--name=value` (the last occurrence
    /// wins if repeated). `aliases` lets `-o` stand for `--output`.
    pub fn value(&mut self, names: &[&str]) -> Result<Option<String>, String> {
        Ok(self.values(names)?.pop())
    }

    /// Consumes `--name value` and parses it.
    pub fn parsed<T: FromStr>(&mut self, names: &[&str]) -> Result<Option<T>, String> {
        match self.value(names)? {
            None => Ok(None),
            Some(v) => v
                .parse()
                .map(Some)
                .map_err(|_| format!("invalid value {:?} for {}", v, names[0])),
        }
    }

    /// Finishes scanning: everything left must be positional (no `--`
    /// options), and there must be at most `max` of them.
    pub fn finish(self, max: usize) -> Result<Vec<String>, String> {
        if let Some(unknown) = self.raw.iter().find(|a| a.starts_with('-')) {
            return Err(format!("unknown option {unknown}"));
        }
        if self.raw.len() > max {
            return Err(format!("unexpected argument {:?}", self.raw[max]));
        }
        Ok(self.raw)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn opts(args: &[&str]) -> Opts {
        Opts::new(args.iter().map(|s| s.to_string()).collect())
    }

    #[test]
    fn flags_values_and_positionals() {
        let mut o = opts(&[
            "model.eie",
            "--batch",
            "8",
            "--verify",
            "--backend=native:2",
        ]);
        assert!(o.flag("--verify"));
        assert!(!o.flag("--verify"));
        assert_eq!(o.parsed::<usize>(&["--batch"]).unwrap(), Some(8));
        assert_eq!(
            o.value(&["--backend"]).unwrap(),
            Some("native:2".to_string())
        );
        assert_eq!(o.finish(1).unwrap(), vec!["model.eie".to_string()]);

        // Repeated, in both spellings: the last occurrence wins.
        let mut o = opts(&["--batch", "4", "--batch=8"]);
        assert_eq!(o.parsed::<usize>(&["--batch"]).unwrap(), Some(8));
        assert!(o.finish(0).unwrap().is_empty());
    }

    #[test]
    fn aliases_and_errors() {
        let mut o = opts(&["-o", "out.eie"]);
        assert_eq!(
            o.value(&["--output", "-o"]).unwrap(),
            Some("out.eie".to_string())
        );

        let mut o = opts(&["--pes"]);
        assert!(o.value(&["--pes"]).unwrap_err().contains("needs a value"));

        let mut o = opts(&["--bogus"]);
        assert!(!o.flag("--known"));
        assert!(o.finish(0).unwrap_err().contains("unknown option"));

        let mut o = opts(&["--batch", "x"]);
        assert!(o.parsed::<usize>(&["--batch"]).is_err());

        let o = opts(&["a", "b"]);
        assert!(o.finish(1).unwrap_err().contains("unexpected argument"));
    }

    #[test]
    fn values_collects_every_occurrence_in_order() {
        let mut o = opts(&[
            "--model",
            "a=a.eie",
            "--model=b=b.eie",
            "run",
            "--model",
            "c",
        ]);
        assert_eq!(
            o.values(&["--model"]).unwrap(),
            vec![
                "a=a.eie".to_string(),
                "b=b.eie".to_string(),
                "c".to_string()
            ]
        );
        assert_eq!(o.values(&["--model"]).unwrap(), Vec::<String>::new());
        assert_eq!(o.finish(1).unwrap(), vec!["run".to_string()]);

        let mut o = opts(&["--model", "a=a.eie", "--model"]);
        assert!(o
            .values(&["--model"])
            .unwrap_err()
            .contains("needs a value"));
    }

    #[test]
    fn help_detection() {
        assert!(opts(&["--help"]).wants_help());
        assert!(opts(&["run", "-h"]).wants_help());
        assert!(!opts(&["run"]).wants_help());
    }
}
