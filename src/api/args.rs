//! The `cimc` flag surface: every flag defined once ([`FLAGS`]), one
//! table per subcommand naming the flags it takes ([`COMMANDS`]), and
//! the one parser ([`parse`]) that walks argv against a table.
//!
//! Everything here is a pure function of its inputs — no printing, no
//! exiting — and every `Err(message)` is the exact string the binary
//! prints to stderr before the usage text (exit 2). The tables are
//! public so `tests/cimc_cli.rs` can drive every subcommand × flag
//! through the real binary, and [`usage`] is generated from them, so a
//! flag cannot exist undocumented. Only the `cimc` binary parses flags:
//! the server takes typed [`Request`](super::Request)s as JSON.

use super::CachePolicy;
use cim_arch::presets;
use cim_traffic::GeneratorKind;
use std::fmt::Write as _;
use Kind::{
    Choice, Choices, Cycles, Lines, List, Millis, Percent, Positive, Switch, Text, Unsigned,
};

type Str = &'static str;

/// What operand a flag takes and how it is validated.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// No operand; present or absent.
    Switch,
    /// Any operand (names, paths, expressions the handler validates).
    Text,
    /// A comma-separated list, read back with [`Parsed::list`].
    List,
    /// An integer >= 1.
    Positive,
    /// An integer >= 0 (`u64`).
    Unsigned,
    /// A line count (`usize`, zero allowed).
    Lines,
    /// Finite milliseconds > 0.
    Millis,
    /// A finite percentage >= 0.
    Percent,
    /// Finite cycles >= 1.
    Cycles,
    /// Exactly one of the listed words.
    Choice(&'static [&'static str]),
    /// A comma-separated list of the listed words.
    Choices(&'static [&'static str]),
}

/// One flag, defined once in [`FLAGS`]: it means the same thing in every
/// subcommand that takes it.
#[derive(Debug, Clone, Copy)]
pub struct Flag {
    /// The flag as typed, e.g. `--jobs`.
    pub name: Str,
    /// Its operand kind.
    pub kind: Kind,
    /// The operand placeholder shown in help (unused by switches and
    /// choices, whose help is derived from the kind).
    pub metavar: Str,
}

const fn flag(name: Str, kind: Kind, metavar: Str) -> Flag {
    Flag {
        name,
        kind,
        metavar,
    }
}

const fn switch(name: Str) -> Flag {
    flag(name, Switch, "")
}

const LEVELS: Kind = Choice(&["cg", "mvm", "vvm"]);
const SWEEP_MODES: &[&str] = &["auto", "cg", "cg_mvm", "cg_mvm_vvm"];

/// Every flag `cimc` knows.
pub const FLAGS: &[Flag] = &[
    flag("--model", Text, "<name|file.json>"),
    flag("--arch", Text, "<preset>"),
    flag("--delta", Text, "<file.json>"),
    flag("--mode", Choice(&["cm", "xbm", "wlm"]), ""),
    flag("--level", LEVELS, ""),
    flag("--jobs", Positive, "<n>"),
    switch("--schedule"),
    flag("--flow", Lines, "<lines>"),
    switch("--verify"),
    switch("--timings"),
    flag("--dump-stage", LEVELS, ""),
    switch("--json"),
    flag("--out-incremental", Text, "<file.json>"),
    flag("--out-fresh", Text, "<file.json>"),
    switch("--quick"),
    flag("--out", Text, "<file.json>"),
    switch("--comparable"),
    flag("--baseline", Text, "<file.json>"),
    switch("--fail-on-regression"),
    flag("--tolerance", Percent, "<pct>"),
    flag("--models", List, "<a,b,..>"),
    flag("--archs", List, "<a,b,..>"),
    flag("--modes", Choices(SWEEP_MODES), "<a,b,..>"),
    flag("--space", Text, "<file.json>"),
    flag(
        "--strategy",
        Text,
        "exhaustive|random|hill-climb|evolutionary",
    ),
    flag("--budget", Positive, "<n>"),
    flag("--seed", Unsigned, "<n>"),
    flag("--objective", Text, "<metric[:w],..>"),
    flag("--trace", Text, "<file.json>"),
    flag("--policy", Text, "fifo|priority|edf"),
    flag("--kind", Choice(&GeneratorKind::NAMES), ""),
    flag("--name", Text, "<s>"),
    flag("--horizon", Unsigned, "<cycles>"),
    flag("--mean-gap", Cycles, "<cycles>"),
    flag("--burst-len", Unsigned, "<n>"),
    flag("--idle-gap", Cycles, "<cycles>"),
    flag("--deadline", Unsigned, "<cycles>"),
    flag("--spec", Text, "<file.json>"),
    flag("--describe", Text, "<trace.json>"),
    flag("--policies", List, "<a,b,..>"),
    flag("--max-batch", Positive, "<n>"),
    flag("--max-wait", Unsigned, "<cycles>"),
    flag("--tcp", Text, "<host:port>"),
    switch("--stdio"),
    flag("--workers", Positive, "<n>"),
    flag("--queue", Positive, "<n>"),
    flag("--deadline-ms", Millis, "<ms>"),
    switch("--metrics"),
    flag("--addr", Text, "<host:port>"),
    flag("--requests", Positive, "<n>"),
    flag("--concurrency", Positive, "<n>"),
    flag("--script", Text, "<file.json>"),
    switch("--shutdown"),
    flag("--cache-dir", Text, "<dir>"),
    switch("--no-cache"),
    flag("--trace-out", Text, "<file>"),
    switch("--profile"),
];

/// A subcommand and its flag table: the [`FLAGS`] it takes, by name, in
/// help order.
#[derive(Debug, Clone, Copy)]
pub struct Command {
    /// The word after `cimc`.
    pub name: Str,
    /// What help shows unbracketed, space-separated: the flags the
    /// subcommand insists on (its own message names them all at once)
    /// or, for `list`, its positional operand.
    pub required: Str,
    /// The optional flags, space-separated.
    pub optional: Str,
}

const fn cmd(name: Str, required: Str, optional: Str) -> Command {
    Command {
        name,
        required,
        optional,
    }
}

/// Every subcommand, in help order.
pub const COMMANDS: &[Command] = &[
    cmd("archs", "", ""),
    cmd("models", "", ""),
    cmd(
        "list",
        "<models|archs|modes|strategies|objectives|policies|traces|exporters>",
        "",
    ),
    cmd(
        "compile",
        "--model --arch",
        "--mode --level --schedule --flow --verify --timings --dump-stage --json \
         --cache-dir --no-cache --trace-out --profile",
    ),
    cmd(
        "recompile",
        "--model --arch --delta",
        "--mode --level --timings --json --out-incremental --out-fresh",
    ),
    cmd(
        "bench",
        "",
        "--quick --jobs --out --comparable --baseline --fail-on-regression --tolerance \
         --models --archs --modes --cache-dir --no-cache --trace-out --profile",
    ),
    cmd(
        "explore",
        "",
        "--model --space --strategy --budget --seed --objective --trace --policy --jobs --out \
         --comparable --cache-dir --no-cache --trace-out --profile",
    ),
    cmd(
        "trace",
        "",
        "--models --kind --name --seed --horizon --mean-gap --burst-len --idle-gap --deadline \
         --spec --describe --out",
    ),
    cmd(
        "simulate",
        "",
        "--trace --spec --arch --policies --max-batch --max-wait --jobs --out --comparable \
         --cache-dir --no-cache --trace-out --profile",
    ),
    cmd(
        "serve",
        "",
        "--tcp --stdio --workers --queue --deadline-ms --cache-dir --no-cache --metrics",
    ),
    cmd(
        "loadtest",
        "--addr",
        "--requests --concurrency --deadline-ms --script --out --shutdown --metrics",
    ),
];

/// Looks a subcommand up by name.
#[must_use]
pub fn command(name: &str) -> Option<&'static Command> {
    COMMANDS.iter().find(|c| c.name == name)
}

impl Command {
    /// `required` then `optional`, word by word, each with whether help
    /// brackets it.
    fn words(&self) -> impl Iterator<Item = (Str, bool)> {
        let required = self.required.split_whitespace().map(|word| (word, false));
        required.chain(self.optional.split_whitespace().map(|word| (word, true)))
    }

    /// This subcommand's flag table.
    ///
    /// # Panics
    /// If it names a flag [`FLAGS`] does not define.
    pub fn flags(&self) -> impl Iterator<Item = &'static Flag> {
        let names = self.words().filter(|(word, _)| word.starts_with("--"));
        names.map(|(name, _)| find_flag(name).unwrap_or_else(|| panic!("`{name}` is not in FLAGS")))
    }
}

fn find_flag(name: &str) -> Option<&'static Flag> {
    FLAGS.iter().find(|f| f.name == name)
}

/// The help text: one line per [`COMMANDS`] entry plus the preset names.
#[must_use]
pub fn usage() -> String {
    let mut out = String::from("usage:");
    for cmd in COMMANDS {
        let _ = write!(out, "\n  cimc {}", cmd.name);
        for (word, bracketed) in cmd.words() {
            let help = match find_flag(word) {
                // `list`'s operand, or a switch: shown as is.
                None | Some(Flag { kind: Switch, .. }) => word.to_owned(),
                Some(Flag {
                    kind: Choice(words),
                    ..
                }) => format!("{word} {}", words.join("|")),
                Some(flag) => format!("{word} {}", flag.metavar),
            };
            let _ = if bracketed {
                write!(out, " [{help}]")
            } else {
                write!(out, " {help}")
            };
        }
    }
    let _ = write!(out, "\npresets: {}", presets::NAMES.join(" "));
    out
}

/// `a, b or c`.
fn or_list(words: &[&str]) -> String {
    match words.split_last() {
        Some((last, rest)) if !rest.is_empty() => format!("{} or {last}", rest.join(", ")),
        _ => words.concat(),
    }
}

impl Flag {
    /// Validates `value` as this flag's operand, naming the flag and the
    /// offending value on failure.
    fn check(&self, value: &str) -> Result<(), String> {
        let name = self.name;
        let float = |ok: fn(f64) -> bool| value.parse().is_ok_and(|x: f64| x.is_finite() && ok(x));
        let (valid, expected) = match self.kind {
            Switch | Text | List => return Ok(()),
            Positive => (
                value.parse().is_ok_and(|n: usize| n > 0),
                "a positive integer",
            ),
            Unsigned => (value.parse::<u64>().is_ok(), "an unsigned integer"),
            Lines => (value.parse::<usize>().is_ok(), "a line count"),
            Millis => (float(|ms| ms > 0.0), "milliseconds > 0"),
            Percent => (float(|pct| pct >= 0.0), "a percentage >= 0"),
            Cycles => (float(|gap| gap >= 1.0), "cycles >= 1"),
            Choice(words) if words.contains(&value) => return Ok(()),
            // This message predates the others: no "value".
            Choice(words) => {
                return Err(format!(
                    "invalid {name} `{value}` (expected {})",
                    or_list(words)
                ));
            }
            Choices(words) => {
                let items = split_list(value);
                let Some(bad) = items.iter().find(|item| !words.contains(&item.as_str())) else {
                    return Ok(());
                };
                return Err(format!(
                    "invalid {name} value `{bad}` (expected {})",
                    or_list(words)
                ));
            }
        };
        if valid {
            return Ok(());
        }
        Err(format!(
            "invalid {name} value `{value}` (expected {expected})"
        ))
    }
}

/// The flags one invocation set, validated against its subcommand's table.
#[derive(Debug)]
pub struct Parsed {
    command: &'static Command,
    values: Vec<(&'static str, String)>,
}

/// Walks `args` left to right against `command`'s table, validating each
/// value as it is met so the first problem in argv order is the one
/// reported. `Ok(None)` means `--help`/`-h` was met (before any error).
/// A repeated flag keeps its last value.
///
/// # Errors
/// ``unknown argument `<arg>` ``, ``missing value for `<flag>` `` (absent,
/// or the next flag follows), or the flag kind's `invalid …` message.
pub fn parse(command: &'static Command, args: &[String]) -> Result<Option<Parsed>, String> {
    let mut values = Vec::new();
    let mut rest = args.iter();
    while let Some(arg) = rest.next() {
        if arg == "--help" || arg == "-h" {
            return Ok(None);
        }
        let Some(flag) = command.flags().find(|f| f.name == arg) else {
            return Err(format!("unknown argument `{arg}`"));
        };
        let mut value = String::new();
        if flag.kind != Kind::Switch {
            // A value must be a real operand, not the next flag.
            match rest.next() {
                Some(v) if !v.starts_with("--") => value.clone_from(v),
                _ => return Err(format!("missing value for `{arg}`")),
            }
            flag.check(&value)?;
        }
        values.push((flag.name, value));
    }
    Ok(Some(Parsed { command, values }))
}

impl Parsed {
    fn raw(&self, name: &str) -> Option<&str> {
        debug_assert!(
            self.command.flags().any(|f| f.name == name),
            "`{name}` is not a `cimc {}` flag",
            self.command.name
        );
        let hit = self.values.iter().rev().find(|(n, _)| *n == name);
        hit.map(|(_, value)| value.as_str())
    }

    /// The names of the flags given, in argv order.
    pub fn given(&self) -> impl Iterator<Item = &'static str> + '_ {
        self.values.iter().map(|(name, _)| *name)
    }

    /// Whether the flag was given (the value of a switch).
    #[must_use]
    pub fn has(&self, name: &str) -> bool {
        self.raw(name).is_some()
    }

    /// The flag's operand as given.
    #[must_use]
    pub fn text(&self, name: &str) -> Option<String> {
        self.raw(name).map(str::to_owned)
    }

    /// The items of a list flag.
    #[must_use]
    pub fn list(&self, name: &str) -> Option<Vec<String>> {
        self.raw(name).map(split_list)
    }

    /// The operand of a numeric flag: `usize` for [`Kind::Positive`] and
    /// [`Kind::Lines`], `u64` for [`Kind::Unsigned`], `f64` for the rest.
    ///
    /// # Panics
    /// If `T` cannot hold what the flag's kind validated.
    #[must_use]
    pub fn number<T: std::str::FromStr>(&self, name: &str) -> Option<T> {
        let parsed = self.raw(name).map(|value| value.parse().ok());
        parsed.map(|n| n.expect("parse validated the operand against the flag's kind"))
    }
}

/// Folds the `--no-cache`/`--cache-dir` flag pair into a [`CachePolicy`].
///
/// # Errors
/// `--no-cache cannot be combined with --cache-dir` when both are set.
pub fn cache_policy(no_cache: bool, cache_dir: Option<String>) -> Result<CachePolicy, String> {
    match (no_cache, cache_dir) {
        (true, Some(_)) => Err("--no-cache cannot be combined with --cache-dir".to_owned()),
        (true, None) => Ok(CachePolicy::Off),
        (false, Some(dir)) => Ok(CachePolicy::Disk { dir }),
        (false, None) => Ok(CachePolicy::Default),
    }
}

/// Splits a comma-separated list flag value into its items, trimming
/// whitespace and dropping empties.
#[must_use]
pub fn split_list(value: &str) -> Vec<String> {
    let items = value.split(',').map(str::trim);
    items.filter(|s| !s.is_empty()).map(str::to_owned).collect()
}

/// Rejects trailing operands after a complete subcommand, naming the
/// offender (`cimc archs extra` must fail, not silently ignore `extra`).
///
/// # Errors
/// ``unexpected argument `<first>` after `cimc <subcommand>` ``.
pub fn reject_trailing(subcommand: &str, args: &[String]) -> Result<(), String> {
    match args.first() {
        Some(extra) => Err(format!(
            "unexpected argument `{extra}` after `cimc {subcommand}`"
        )),
        None => Ok(()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(name: &str, args: &[&str]) -> Result<Option<Parsed>, String> {
        let args: Vec<String> = args.iter().map(|&a| a.to_owned()).collect();
        parse(command(name).expect("known subcommand"), &args)
    }

    #[test]
    fn the_first_error_in_argv_order_wins() {
        let err = |args| run("bench", args).expect_err("argv is rejected");
        assert_eq!(
            err(&["--bogus", "--jobs", "0"]),
            "unknown argument `--bogus`"
        );
        let jobs = "invalid --jobs value `0` (expected a positive integer)";
        assert_eq!(err(&["--jobs", "0", "--bogus"]), jobs);
        assert_eq!(err(&["--jobs", "--bogus"]), "missing value for `--jobs`");
        assert_eq!(err(&["--quick", "stray"]), "unknown argument `stray`");
    }

    #[test]
    fn a_repeated_flag_keeps_its_last_value() {
        let args = [
            "--jobs", "2", "--quick", "--jobs", "8", "--modes", "cg, auto",
        ];
        let flags = run("bench", &args)
            .expect("argv is accepted")
            .expect("no --help");
        assert_eq!(flags.number("--jobs"), Some(8_usize));
        assert_eq!(
            flags.list("--modes"),
            Some(vec!["cg".into(), "auto".into()])
        );
        assert!(flags.has("--quick") && !flags.has("--comparable"));
        assert_eq!(
            flags.given().collect::<Vec<_>>(),
            ["--jobs", "--quick", "--jobs", "--modes"]
        );
    }

    #[test]
    fn help_mid_argv_wins_unless_an_error_precedes_it() {
        for help in ["--help", "-h"] {
            let parsed = run("bench", &["--quick", help, "--bogus"]);
            assert!(matches!(parsed, Ok(None)), "{parsed:?}");
        }
        let bogus = Err("unknown argument `--bogus`".to_owned());
        assert_eq!(run("bench", &["--bogus", "--help"]).map(|_| ()), bogus);
    }

    #[test]
    fn usage_is_generated_from_the_tables() {
        let text = usage();
        let compile = "\n  cimc compile --model <name|file.json> --arch <preset> \
                       [--mode cm|xbm|wlm] [--level cg|mvm|vvm] [--schedule]";
        assert!(text.contains(compile), "{text}");
        assert!(text.contains("\n  cimc list <models|archs|"), "{text}");
        assert!(text.ends_with("\npresets: isaac isaac-wlm jia puma jain table2 sensitivity"));
        assert_eq!(text.lines().count(), COMMANDS.len() + 2);
    }

    #[test]
    fn cache_policy_folds_the_flag_pair() {
        assert_eq!(cache_policy(false, None), Ok(CachePolicy::Default));
        assert_eq!(cache_policy(true, None), Ok(CachePolicy::Off));
        let disk = CachePolicy::Disk { dir: "d".into() };
        assert_eq!(cache_policy(false, Some("d".into())), Ok(disk));
        assert!(cache_policy(true, Some("d".into())).is_err());
    }

    #[test]
    fn trailing_arguments_are_named() {
        assert_eq!(reject_trailing("archs", &[]), Ok(()));
        let named = "unexpected argument `extra` after `cimc archs`".to_owned();
        assert_eq!(reject_trailing("archs", &["extra".to_owned()]), Err(named));
    }
}
