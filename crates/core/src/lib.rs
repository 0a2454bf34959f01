//! `obx-core` — ontology-based explanation of classifiers.
//!
//! This crate implements the contribution of *Croce, Cima, Lenzerini,
//! Catarci — "Ontology-based explanation of classifiers" (EDBT/ICDT 2020
//! workshops)*: given an OBDM system `Σ = ⟨J, D⟩` and a binary classifier
//! `λ` over tuples of `dom(D)` (equivalently, a labelled training set),
//! find a query over the ontology that *best describes* `λ` — the
//! classifier's behaviour restated in the vocabulary a domain expert
//! understands.
//!
//! The pipeline, mirroring the paper section by section:
//!
//! 1. **λ as labels** ([`labels`]) — the positive set `λ⁺` and negative set
//!    `λ⁻` (§1, §3).
//! 2. **Borders** ([`obx_srcdb::border`]) — the radius-`r` neighbourhood
//!    `B_{t,r}(D)` of each classified tuple (Definitions 3.1–3.2).
//! 3. **J-matching** ([`matcher`]) — `q` J-matches `B_{t,r}(D)` iff
//!    `t ∈ cert(q, J, B_{t,r}(D))` (Definition 3.4). Candidate queries are
//!    compiled once (PerfectRef + unfold) and then matched against every
//!    labelled tuple's border.
//! 4. **Criteria and score** ([`criteria`], [`score`]) — the set `Δ` of
//!    criteria (δ1–δ6 built in, custom ones pluggable), their functions
//!    `F`, and the expression `Z` combining them into the Z-score (§3).
//! 5. **Scoring engine** ([`engine`]) — all candidate scoring funnels
//!    through a shared per-task engine: each distinct disjunct is compiled
//!    and matched once and memoized as a bitset; UCQ statistics are bit
//!    ORs; batches run on a persistent worker pool (`OBX_THREADS`).
//!    Refinement children are delta-evaluated against their parent's bits
//!    and bound-pruned via interval arithmetic over `Z` ([`prune`]),
//!    returning byte-identical rankings at a fraction of the evaluator
//!    calls.
//! 6. **Best-describing search** ([`explain`], [`strategies`]) —
//!    Definition 3.7 asks for a query maximizing the Z-score in a language
//!    `L_O`; four strategies are provided (exhaustive enumeration,
//!    bottom-up generalization from positive borders, top-down beam
//!    search, and greedy UCQ assembly), plus a data-level baseline
//!    ([`baseline`]) that ignores the ontology — quantifying exactly what
//!    OBDM buys (the paper's motivation).
//! 7. **Resilience** ([`budget`]) — every search carries a
//!    [`budget::SearchBudget`] (wall-clock deadline, evaluator-call cap,
//!    cancellation token) honoured cooperatively down to the rewriting
//!    and chase kernels. Strategies are *anytime*: when the budget fires
//!    they return best-so-far results tagged with a
//!    [`budget::Termination`], and candidates whose scoring panics or
//!    fails are quarantined instead of aborting the search.
//!
//! The worked example of the paper (students/Rome, Examples 3.3, 3.6, 3.8)
//! is packaged in [`paper_example`] and reproduced down to the reported
//! decimals by the integration suite.
//!
//! # End-to-end example
//!
//! ```
//! use obx_core::explain::{ExplainTask, SearchLimits, Strategy};
//! use obx_core::labels::Labels;
//! use obx_core::score::Scoring;
//! use obx_core::strategies::BeamSearch;
//!
//! // Σ = ⟨J, D⟩: the paper's Example 3.6 system.
//! let mut system = obx_obdm::example_3_6_system();
//!
//! // λ: four positive students, one negative.
//! let labels = Labels::parse(system.db_mut(), "+ A10\n+ B80\n+ C12\n+ D50\n- E25").unwrap();
//!
//! // Δ = {δ1, δ4, δ5}, Z = weighted average (Example 3.8's Z1).
//! let scoring = Scoring::paper_weighted(1.0, 1.0, 1.0);
//!
//! // Definition 3.7 at radius r = 1.
//! let task = ExplainTask::new(&system, &labels, 1, &scoring, SearchLimits::default()).unwrap();
//! let best = &BeamSearch.explain(&task).unwrap()[0];
//!
//! // The search reaches (at least) the paper's best candidate, q3 = 0.833.
//! assert!(best.score >= 0.8333 - 1e-9);
//! assert_eq!(best.stats.neg_matched, 0);
//! ```

#![warn(missing_docs)]
// Scoring runs inside the always-on serve loop, budgets and validation
// face untrusted input, and a panic in the engine's worker pool defeats
// the quarantine contract: no non-test code in this crate may panic on
// an `unwrap` or `expect`. The few static invariants carry a scoped
// `#[allow]` with the reason next to it.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod baseline;
pub mod budget;
pub mod criteria;
pub mod engine;
pub mod explain;
pub mod labels;
pub mod matcher;
pub mod paper_example;
pub mod prune;
pub mod scenario;
pub mod score;
pub mod service;
pub mod strategies;
pub mod validate;

pub use budget::{CancelToken, SearchBudget, Stop, Termination};
pub use criteria::{Criterion, CriterionCtx};
pub use engine::{BatchOutcome, PlannedCq, ScoringEngine};
pub use explain::{ExplainError, ExplainReport, ExplainTask, Explanation, SearchLimits, Strategy};
pub use labels::{Labels, LabelsError};
pub use matcher::{LabelBorders, MatchBits, MatchStats, PreparedLabels};
pub use prune::{Interval, ParentHandle, RefineDir};
pub use scenario::{load_dir, load_dir_checked, write_paper_example, LoadedScenario};
pub use score::{ScoreExpr, Scoring};
pub use service::{ExplainRequest, ServiceError, ServiceOutcome};
pub use validate::validate_scenario;
