//! Algorithm specifications: the string-parsable algorithm axis.
//!
//! The paper compares four algorithms; an [`AlgorithmSpec`] names one of
//! them plus the modifiers that vary one scheduling rule each, and the
//! pipeline ([`crate::pipeline`]) reads the spec where each rule applies.
//! Specs have a stable textual syntax so sweeps can select them from the
//! command line and records can name them:
//!
//! ```text
//! spec      := base (":" modifier)* | portfolio
//! base      := "uracam" | "fixed" | "gp" | "list"
//! modifier  := "norepart" | "greedy-merit" | "linear-ii" | "nospill"
//! portfolio := "portfolio" (":" k (":" budget)?)?
//! ```
//!
//! Bare bases are exactly the paper's algorithms ([`AlgorithmSpec::URACAM`],
//! [`AlgorithmSpec::FIXED`], [`AlgorithmSpec::GP`], [`AlgorithmSpec::LIST`])
//! and display under the paper's names (`URACAM`, `Fixed`, `GP`, `List`).
//! Modifiers compose where they make sense:
//!
//! * `gp:norepart` — GP without selective re-partitioning; isolates the
//!   paper's §3.1 re-partitioning contribution.
//! * `uracam:greedy-merit` — URACAM with first-feasible cluster selection
//!   instead of the full merit arbitration; isolates the figure of merit.
//! * `gp:linear-ii` — strict +1 II growth instead of the accelerating
//!   schedule.
//! * `gp:nospill` — spilling disabled; overflow forces a larger II.
//!
//! `list` is the non-pipelined baseline and bypasses the pipeline.
//!
//! `portfolio[:k][:budget]` is a meta-spec: it does not name a pipeline
//! composition but a *selection strategy* over the fixed [CATALOG]
//! ([`AlgorithmSpec::CATALOG`]) — rank candidates by loop/machine
//! features, race the top `k` (default 3) with at most `budget` failed II
//! attempts per raced challenger (default 16), keep the best schedule.
//! See [`crate::portfolio`].

use std::error::Error;
use std::fmt;
use std::str::FromStr;

/// The base algorithm family of a spec.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub(crate) enum BaseAlgorithm {
    /// Integrated scheduling, every node tries every cluster.
    Uracam,
    /// Follow the partition exactly.
    FixedPartition,
    /// Partition first, merit escape, selective re-partitioning.
    Gp,
    /// Non-pipelined list scheduling (bypasses the pipeline).
    List,
    /// Feature-guided selection over the catalog: rank the fixed specs by
    /// loop/machine features, race the top `k` under a budget, keep the
    /// best schedule ([`crate::portfolio`]).
    Portfolio,
}

impl BaseAlgorithm {
    fn display(self) -> &'static str {
        match self {
            BaseAlgorithm::Uracam => "URACAM",
            BaseAlgorithm::FixedPartition => "Fixed",
            BaseAlgorithm::Gp => "GP",
            BaseAlgorithm::List => "List",
            BaseAlgorithm::Portfolio => "Portfolio",
        }
    }

    fn spec_token(self) -> &'static str {
        match self {
            BaseAlgorithm::Uracam => "uracam",
            BaseAlgorithm::FixedPartition => "fixed",
            BaseAlgorithm::Gp => "gp",
            BaseAlgorithm::List => "list",
            BaseAlgorithm::Portfolio => "portfolio",
        }
    }
}

/// A malformed or inapplicable algorithm spec.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SpecError {
    /// The offending spec text.
    pub spec: String,
    /// What is wrong with it.
    pub msg: String,
}

impl fmt::Display for SpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "algorithm spec `{}`: {}", self.spec, self.msg)
    }
}

impl Error for SpecError {}

/// One algorithm variant: a base family plus modifier flags.
///
/// Construct by [parsing](Self::parse) the textual syntax or naming one of
/// the consts ([`Self::GP`], [`Self::PAPER`], [`Self::CATALOG`], …). The
/// value is `Copy` and hashable, so job specs and memo keys can carry it
/// directly.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct AlgorithmSpec {
    base: BaseAlgorithm,
    greedy_merit: bool,
    norepart: bool,
    linear_ii: bool,
    nospill: bool,
    /// Portfolio race width; 0 means "default" so fixed specs stay the
    /// zero value and every existing const/struct-update site is valid.
    k: u8,
    /// Portfolio per-challenger attempt budget; 0 means "default".
    budget: u8,
}

impl AlgorithmSpec {
    /// Default portfolio race width (`portfolio` == `portfolio:3`).
    pub const PORTFOLIO_DEFAULT_K: u8 = 3;
    /// Default per-challenger attempt budget (`portfolio:k` ==
    /// `portfolio:k:16`).
    pub const PORTFOLIO_DEFAULT_BUDGET: u8 = 16;

    /// The bare spec of a base family (no modifiers).
    pub(crate) const fn bare(base: BaseAlgorithm) -> Self {
        AlgorithmSpec {
            base,
            greedy_merit: false,
            norepart: false,
            linear_ii: false,
            nospill: false,
            k: 0,
            budget: 0,
        }
    }

    /// The URACAM baseline: every node tries every cluster and the figure
    /// of merit picks (`uracam`).
    pub const URACAM: AlgorithmSpec = AlgorithmSpec::bare(BaseAlgorithm::Uracam);

    /// GP variant (a), Fixed Partition: follow the partition exactly
    /// (`fixed`).
    pub const FIXED: AlgorithmSpec = AlgorithmSpec::bare(BaseAlgorithm::FixedPartition);

    /// The proposed GP scheme: partition first, merit escape, selective
    /// re-partitioning (`gp`).
    pub const GP: AlgorithmSpec = AlgorithmSpec::bare(BaseAlgorithm::Gp);

    /// Plain acyclic list scheduling, iterations back to back (`list`) —
    /// the paper's fallback promoted to a comparator.
    pub const LIST: AlgorithmSpec = AlgorithmSpec::bare(BaseAlgorithm::List);

    /// The paper's algorithms in presentation order, then the list
    /// baseline (`--algos all`).
    pub const PAPER: [AlgorithmSpec; 4] = [
        AlgorithmSpec::URACAM,
        AlgorithmSpec::FIXED,
        AlgorithmSpec::GP,
        AlgorithmSpec::LIST,
    ];

    /// The three modulo schedulers of the paper's figures (`--algos
    /// modulo`).
    pub const MODULO: [AlgorithmSpec; 3] = [
        AlgorithmSpec::URACAM,
        AlgorithmSpec::FIXED,
        AlgorithmSpec::GP,
    ];

    /// GP without selective re-partitioning (`gp:norepart`).
    pub const GP_NOREPART: AlgorithmSpec = AlgorithmSpec {
        norepart: true,
        ..AlgorithmSpec::GP
    };

    /// URACAM with greedy first-feasible cluster selection
    /// (`uracam:greedy-merit`).
    pub const URACAM_GREEDY: AlgorithmSpec = AlgorithmSpec {
        greedy_merit: true,
        ..AlgorithmSpec::URACAM
    };

    /// GP with strict +1 II growth (`gp:linear-ii`).
    pub const GP_LINEAR_II: AlgorithmSpec = AlgorithmSpec {
        linear_ii: true,
        ..AlgorithmSpec::GP
    };

    /// GP with spilling disabled (`gp:nospill`).
    pub const GP_NOSPILL: AlgorithmSpec = AlgorithmSpec {
        nospill: true,
        ..AlgorithmSpec::GP
    };

    /// The portfolio meta-spec with default width and budget
    /// (`portfolio` == `portfolio:3:16`).
    pub const PORTFOLIO: AlgorithmSpec = AlgorithmSpec::bare(BaseAlgorithm::Portfolio);

    /// The shipped catalog: the four paper algorithms followed by every
    /// bundled variant, in presentation order. Sweep shortcuts (`--algos
    /// extended`) and the variant property tests iterate this.
    pub const CATALOG: [AlgorithmSpec; 8] = [
        AlgorithmSpec::URACAM,
        AlgorithmSpec::FIXED,
        AlgorithmSpec::GP,
        AlgorithmSpec::LIST,
        AlgorithmSpec::GP_NOREPART,
        AlgorithmSpec::URACAM_GREEDY,
        AlgorithmSpec::GP_LINEAR_II,
        AlgorithmSpec::GP_NOSPILL,
    ];

    /// Whether this is the non-pipelined list baseline.
    pub fn is_list(&self) -> bool {
        self.base == BaseAlgorithm::List
    }

    /// Whether this is the portfolio meta-spec.
    pub fn is_portfolio(&self) -> bool {
        self.base == BaseAlgorithm::Portfolio
    }

    /// Whether this spec schedules against a precomputed partition.
    /// Portfolio counts: its candidates share one seed partition, and the
    /// feature extractor reads the partition cost.
    pub fn needs_partition(&self) -> bool {
        matches!(
            self.base,
            BaseAlgorithm::FixedPartition | BaseAlgorithm::Gp | BaseAlgorithm::Portfolio
        )
    }

    /// The base family.
    pub(crate) fn base(&self) -> BaseAlgorithm {
        self.base
    }

    /// Whether first fit replaces merit arbitration (`:greedy-merit`).
    pub(crate) fn greedy_merit(&self) -> bool {
        self.greedy_merit
    }

    /// Whether GP keeps its initial partition (`:norepart`).
    pub(crate) fn norepart(&self) -> bool {
        self.norepart
    }

    /// Whether register overflow spills (§3.3.2); `false` only under
    /// `:nospill`, where overflow fails the placement instead.
    pub fn spills(&self) -> bool {
        !self.nospill
    }

    /// The next II to try after an attempt at `ii` failed; `failures`
    /// counts the attempts that already failed (0 on the first failure).
    /// `ii + 1` under `:linear-ii`, the textbook iterative modulo
    /// scheduling rule. Otherwise `ii + 1 + failures / 4`: +1 for the
    /// first few tries, then gently accelerating, so pathological loops
    /// reach their feasible II in O(√II) attempts instead of O(II).
    pub(crate) fn next_ii(&self, ii: i64, failures: usize) -> i64 {
        if self.linear_ii {
            ii + 1
        } else {
            ii + 1 + failures as i64 / 4
        }
    }

    /// Portfolio race width: how many ranked candidates race per unit.
    pub fn portfolio_k(&self) -> usize {
        if self.k == 0 {
            Self::PORTFOLIO_DEFAULT_K as usize
        } else {
            self.k as usize
        }
    }

    /// Portfolio budget: maximum failed II attempts per raced challenger
    /// before it is abandoned.
    pub fn portfolio_budget(&self) -> usize {
        if self.budget == 0 {
            Self::PORTFOLIO_DEFAULT_BUDGET as usize
        } else {
            self.budget as usize
        }
    }

    /// Parses the `base(:modifier)*` syntax.
    ///
    /// # Errors
    ///
    /// [`SpecError`] on unknown bases or modifiers, duplicates, and
    /// modifiers that do not apply to the base (e.g. `fixed:norepart` —
    /// Fixed never re-partitions to begin with).
    pub fn parse(s: &str) -> Result<AlgorithmSpec, SpecError> {
        let err = |msg: String| SpecError {
            spec: s.to_string(),
            msg,
        };
        let lower = s.trim().to_ascii_lowercase();
        let mut parts = lower.split(':');
        let base = match parts.next().unwrap_or("") {
            "uracam" => BaseAlgorithm::Uracam,
            "fixed" | "fixedpartition" | "fixed-partition" => BaseAlgorithm::FixedPartition,
            "gp" => BaseAlgorithm::Gp,
            "list" => BaseAlgorithm::List,
            "portfolio" => BaseAlgorithm::Portfolio,
            other => {
                return Err(err(format!(
                    "unknown base `{other}` (expected uracam|fixed|gp|list|portfolio)"
                )))
            }
        };
        let mut spec = AlgorithmSpec::bare(base);
        if base == BaseAlgorithm::Portfolio {
            // Portfolio takes positional numeric parameters, not modifiers:
            // portfolio[:k][:budget].
            let param = |name: &str, part: &str| -> Result<u8, SpecError> {
                match part.parse::<u8>() {
                    Ok(v) if v >= 1 => Ok(v),
                    _ => Err(err(format!(
                        "portfolio {name} must be an integer in 1..=255, got `{part}`"
                    ))),
                }
            };
            if let Some(p) = parts.next() {
                spec.k = param("k", p)?;
            }
            if let Some(p) = parts.next() {
                spec.budget = param("budget", p)?;
            }
            if let Some(extra) = parts.next() {
                return Err(err(format!(
                    "portfolio takes at most `:k:budget`, got extra part `{extra}`"
                )));
            }
            return Ok(spec);
        }
        for m in parts {
            let flag = match m {
                "norepart" => {
                    if base != BaseAlgorithm::Gp {
                        return Err(err(format!(
                            "`norepart` only applies to gp (`{}` never re-partitions)",
                            base.spec_token()
                        )));
                    }
                    &mut spec.norepart
                }
                "greedy-merit" => {
                    if !matches!(base, BaseAlgorithm::Uracam | BaseAlgorithm::Gp) {
                        return Err(err(
                            "`greedy-merit` only applies to uracam or gp (the merit-arbitrated \
                             bases)"
                                .to_string(),
                        ));
                    }
                    &mut spec.greedy_merit
                }
                "linear-ii" => {
                    if base == BaseAlgorithm::List {
                        return Err(err("`linear-ii` does not apply to list".to_string()));
                    }
                    &mut spec.linear_ii
                }
                "nospill" => {
                    if base == BaseAlgorithm::List {
                        return Err(err("`nospill` does not apply to list".to_string()));
                    }
                    &mut spec.nospill
                }
                "" => return Err(err("empty modifier".to_string())),
                other => {
                    return Err(err(format!(
                        "unknown modifier `{other}` (expected \
                         norepart|greedy-merit|linear-ii|nospill)"
                    )))
                }
            };
            if *flag {
                return Err(err(format!("duplicate modifier `{m}`")));
            }
            *flag = true;
        }
        Ok(spec)
    }

    /// Parses an algorithm selection: one of the shortcuts `all`
    /// ([`Self::PAPER`]), `modulo` ([`Self::MODULO`]) and `extended`
    /// ([`Self::CATALOG`]), or a comma-separated list of specs (empty
    /// items are skipped).
    ///
    /// # Errors
    ///
    /// The [`SpecError`] of the first spec that does not [parse](Self::parse).
    pub fn parse_list(s: &str) -> Result<Vec<AlgorithmSpec>, SpecError> {
        match s.trim() {
            "all" => Ok(Self::PAPER.to_vec()),
            "modulo" => Ok(Self::MODULO.to_vec()),
            "extended" => Ok(Self::CATALOG.to_vec()),
            list => list
                .split(',')
                .map(str::trim)
                .filter(|name| !name.is_empty())
                .map(Self::parse)
                .collect(),
        }
    }

    /// `head` followed by the portfolio parameters (`:k[:budget]`,
    /// positional, so a non-default budget forces `k` out too) or the set
    /// modifiers in canonical order.
    fn with_suffix(&self, head: &str) -> String {
        let mut out = String::from(head);
        if self.is_portfolio() {
            if self.budget != 0 {
                out.push_str(&format!(":{}:{}", self.portfolio_k(), self.budget));
            } else if self.k != 0 {
                out.push_str(&format!(":{}", self.k));
            }
            return out;
        }
        for (on, tok) in [
            (self.greedy_merit, "greedy-merit"),
            (self.norepart, "norepart"),
            (self.linear_ii, "linear-ii"),
            (self.nospill, "nospill"),
        ] {
            if on {
                out.push(':');
                out.push_str(tok);
            }
        }
        out
    }

    /// The canonical spec string (`gp:norepart`, …). Parsing it yields
    /// `self` back.
    pub fn spec_string(&self) -> String {
        self.with_suffix(self.base.spec_token())
    }

    /// Display name used in records, tables and figures. Bare specs keep
    /// the paper names (`GP`, `URACAM`, …); variants append their
    /// modifiers (`GP:norepart`).
    pub fn name(&self) -> String {
        self.with_suffix(self.base.display())
    }
}

impl fmt::Display for AlgorithmSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.name())
    }
}

impl FromStr for AlgorithmSpec {
    type Err = SpecError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        AlgorithmSpec::parse(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bare_specs_keep_paper_names() {
        let names = AlgorithmSpec::PAPER.map(|s| s.name());
        assert_eq!(names, ["URACAM", "Fixed", "GP", "List"]);
        assert_eq!(AlgorithmSpec::MODULO, AlgorithmSpec::PAPER[..3]);
        assert_eq!(AlgorithmSpec::PAPER, AlgorithmSpec::CATALOG[..4]);
        for spec in AlgorithmSpec::PAPER {
            assert_eq!(AlgorithmSpec::parse(&spec.name()).unwrap(), spec);
        }
        assert_eq!(
            AlgorithmSpec::parse("fixed-partition").unwrap(),
            AlgorithmSpec::FIXED
        );
    }

    #[test]
    fn parse_list_expands_shortcuts_and_reports_bad_specs() {
        let list = |s| AlgorithmSpec::parse_list(s).unwrap();
        assert_eq!(list("all"), AlgorithmSpec::PAPER);
        assert_eq!(list(" modulo "), AlgorithmSpec::MODULO);
        assert_eq!(list("extended"), AlgorithmSpec::CATALOG);
        assert_eq!(
            list("gp, gp:norepart,,list"),
            [
                AlgorithmSpec::GP,
                AlgorithmSpec::GP_NOREPART,
                AlgorithmSpec::LIST
            ]
        );
        assert!(list("").is_empty());
        let e = AlgorithmSpec::parse_list("gp,nonsense").unwrap_err();
        assert_eq!(e.spec, "nonsense");
    }

    #[test]
    fn parse_round_trips_catalog() {
        for spec in AlgorithmSpec::CATALOG {
            let text = spec.spec_string();
            assert_eq!(AlgorithmSpec::parse(&text).unwrap(), spec, "{text}");
            // Display names parse too (case-insensitive).
            assert_eq!(AlgorithmSpec::parse(&spec.name()).unwrap(), spec);
        }
    }

    #[test]
    fn variant_names() {
        assert_eq!(AlgorithmSpec::GP_NOREPART.name(), "GP:norepart");
        assert_eq!(AlgorithmSpec::GP_NOREPART.spec_string(), "gp:norepart");
        assert_eq!(AlgorithmSpec::URACAM_GREEDY.name(), "URACAM:greedy-merit");
    }

    #[test]
    fn inapplicable_modifiers_rejected() {
        for bad in [
            "uracam:norepart",
            "fixed:norepart",
            "fixed:greedy-merit",
            "list:nospill",
            "list:linear-ii",
            "gp:norepart:norepart",
            "gp:",
            "gp:frobnicate",
            "nonsense",
        ] {
            let e = AlgorithmSpec::parse(bad).unwrap_err();
            assert!(e.to_string().contains(bad), "{bad}: {e}");
        }
    }

    #[test]
    fn modifiers_compose_and_canonicalize() {
        let a = AlgorithmSpec::parse("gp:nospill:norepart").unwrap();
        let b = AlgorithmSpec::parse("gp:norepart:nospill").unwrap();
        assert_eq!(a, b);
        assert_eq!(a.spec_string(), "gp:norepart:nospill");
        assert_eq!(a.name(), "GP:norepart:nospill");
        assert!(!a.spills() && AlgorithmSpec::GP_NOREPART.spills());
    }

    #[test]
    fn portfolio_spec_syntax() {
        let p = AlgorithmSpec::parse("portfolio").unwrap();
        assert_eq!(p, AlgorithmSpec::PORTFOLIO);
        assert!(p.is_portfolio() && !p.is_list());
        assert!(p.needs_partition());
        assert_eq!(p.portfolio_k(), 3);
        assert_eq!(p.portfolio_budget(), 16);
        assert_eq!(p.name(), "Portfolio");
        assert_eq!(p.spec_string(), "portfolio");

        let p = AlgorithmSpec::parse("portfolio:5").unwrap();
        assert_eq!((p.portfolio_k(), p.portfolio_budget()), (5, 16));
        assert_eq!(p.spec_string(), "portfolio:5");
        assert_eq!(AlgorithmSpec::parse(&p.spec_string()).unwrap(), p);

        let p = AlgorithmSpec::parse("portfolio:2:8").unwrap();
        assert_eq!((p.portfolio_k(), p.portfolio_budget()), (2, 8));
        assert_eq!(p.name(), "Portfolio:2:8");
        assert_eq!(AlgorithmSpec::parse(&p.name()).unwrap(), p);

        for bad in [
            "portfolio:0",
            "portfolio:3:0",
            "portfolio:norepart",
            "portfolio:3:16:9",
            "portfolio:-1",
            "portfolio:999",
        ] {
            assert!(AlgorithmSpec::parse(bad).is_err(), "{bad}");
        }
    }

    #[test]
    fn accelerating_matches_legacy_step() {
        // Legacy: ii += 1 + failures/4.
        let mut ii = 10;
        for failures in 0..12 {
            let next = AlgorithmSpec::GP.next_ii(ii, failures);
            assert_eq!(next, ii + 1 + failures as i64 / 4);
            assert!(next > ii);
            ii = next;
        }
    }

    #[test]
    fn linear_is_plus_one() {
        assert_eq!(AlgorithmSpec::GP_LINEAR_II.next_ii(7, 0), 8);
        assert_eq!(AlgorithmSpec::GP_LINEAR_II.next_ii(7, 99), 8);
    }
}
