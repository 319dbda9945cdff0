//! The projection stepper: the one definition of Definition 6's row test.
//!
//! A transformation is legal iff, for every dependence, the rows of `M·d`
//! at the loops common to source and target are lexicographically
//! non-negative. Walking those rows outside-in, each row does one of three
//! things to a dependence that is still undecided: it makes every instance
//! strictly positive (the dependence is satisfied and drops out), it keeps
//! every instance non-negative (the dependence stays active, restricted to
//! the instances on which the row is zero), or it drives some instance
//! negative (the row is invalid). [`DepState::step`] decides which, in two
//! tiers: interval arithmetic over the distance/direction entries (fast,
//! conservative), then exact feasibility queries on the retained dependence
//! polyhedron under the *zero context* — the earlier rows pinned to zero.
//!
//! [`crate::legal::check_legal`] and [`crate::legal::check_structural`] walk
//! a matrix made elsewhere through it one dependence at a time;
//! [`crate::complete::PrefixWalk`] walks candidate rows through it one slot
//! at a time ([`step_all`], [`commit_all`], [`revert_all`]): the search's
//! nodes, [`crate::complete::check_prefix`] and
//! [`crate::complete::complete_transform`] all push rows on it, and every
//! completion, a search leaf's or `complete_transform`'s, reads its
//! legality report off that walk rather than walking its matrix again.
//! There is no other copy of the interval arithmetic or of the `row·Δ`
//! construction.

use crate::depend::{DepEntry, Dependence, DependenceMatrix};
use crate::instance::InstanceLayout;
use inl_linalg::{InlError, Int};
use inl_poly::{is_empty, Feasibility, LinExpr, System};

/// Interval of `row · entries`. A bound whose product or sum overflows is
/// widened to "unbounded" — sound (the interval only grows), and
/// inconclusive intervals fall through to the exact polyhedral query.
pub(crate) fn row_dot(row: &[Int], entries: &[DepEntry]) -> DepEntry {
    let mut acc = DepEntry::dist(0);
    for (&c, e) in row.iter().zip(entries) {
        if c == 0 {
            continue;
        }
        let (lo, hi) = (
            e.lo.and_then(|x| x.checked_mul(c)),
            e.hi.and_then(|x| x.checked_mul(c)),
        );
        let (lo, hi) = if c > 0 { (lo, hi) } else { (hi, lo) };
        acc = DepEntry {
            lo: acc.lo.zip(lo).and_then(|(a, b)| a.checked_add(b)),
            hi: acc.hi.zip(hi).and_then(|(a, b)| a.checked_add(b)),
        };
    }
    acc
}

/// `row · Δ` as a linear expression over the dependence polyhedron.
fn row_expr(
    layout: &InstanceLayout,
    nparams: usize,
    d: &Dependence,
    row: &[Int],
) -> Result<LinExpr, InlError> {
    let mut acc = LinExpr::zero(d.system.nvars());
    for (j, &c) in row.iter().enumerate() {
        if c != 0 {
            let term = d.checked_delta_expr(layout, nparams, j)?.checked_scale(c)?;
            acc = acc.checked_add(&term)?;
        }
    }
    Ok(acc)
}

/// Positions (ascending = outside-in) of the loops that surround both the
/// dependence's source and its target in the program `layout` lays out —
/// the source program, or the target of a transformation (statement ids
/// survive every one).
pub(crate) fn common_positions(layout: &InstanceLayout, d: &Dependence) -> Vec<usize> {
    let (src, dst) = (layout.stmt_loops(d.src), layout.stmt_loops(d.dst));
    let common = src.iter().zip(dst).take_while(|(a, b)| a == b).count();
    let mut pos: Vec<usize> = src[..common]
        .iter()
        .map(|&l| layout.loop_position(l))
        .collect();
    pos.sort_unstable();
    pos
}

/// What a row does to a still-active dependence.
pub(crate) enum RowEffect {
    /// Every remaining instance gets a strictly positive value: satisfied.
    Satisfies,
    /// Never negative: the dependence stays active. `Some(e)` is `row·Δ`,
    /// which is zero on some remaining instances but not identically, and
    /// must be pinned to zero for the rows that follow; `None` means the
    /// row is identically zero on the dependence.
    NonNegative(Option<LinExpr>),
    /// Some remaining instance would go negative: the row is invalid.
    Invalid,
}

/// Outcome of [`DepState::step`].
pub(crate) struct Step {
    /// The interval of `row · d`.
    pub value: DepEntry,
    /// Whether the interval was inconclusive and the polyhedron was asked.
    pub exact: bool,
    /// The verdict.
    pub effect: RowEffect,
}

/// One dependence's progress through the rows of its common loops.
pub(crate) struct DepState<'a> {
    /// Index into `deps.deps` (names the dependence in verdicts).
    pub idx: usize,
    pub dep: &'a Dependence,
    /// Common loop positions (ascending) of source and target.
    pub common: Vec<usize>,
    /// The dependence polyhedron with every earlier possibly-zero row
    /// pinned to zero; `None` while that is still the bare polyhedron.
    context: Option<System>,
    pub satisfied: bool,
}

impl<'a> DepState<'a> {
    pub(crate) fn new(idx: usize, dep: &'a Dependence, common: Vec<usize>) -> Self {
        DepState {
            idx,
            dep,
            common,
            context: None,
            satisfied: false,
        }
    }

    /// Does `extra` (an equality when `eq`, else `extra ≥ 0`) admit an
    /// instance of the dependence under the zero context?
    fn admits(&self, extra: LinExpr, eq: bool) -> bool {
        let mut sys = self.context.as_ref().unwrap_or(&self.dep.system).clone();
        if eq {
            sys.add_eq(extra);
        } else {
            sys.add_ge(extra);
        }
        is_empty(&sys) != Feasibility::Empty
    }

    /// Decide what `row` does to this dependence. Does not change the
    /// state: [`DepState::commit`] applies a verdict once the caller has
    /// accepted the row. Errors only when exact arithmetic overflows; the
    /// interval tier degrades conservatively instead.
    pub(crate) fn step(
        &self,
        layout: &InstanceLayout,
        nparams: usize,
        row: &[Int],
    ) -> Result<Step, InlError> {
        let value = row_dot(row, &self.dep.entries);
        let decided = if value.is_positive() {
            Some(RowEffect::Satisfies)
        } else if value.is_zero() {
            Some(RowEffect::NonNegative(None))
        } else if value.is_negative() {
            Some(RowEffect::Invalid)
        } else {
            None
        };
        if let Some(effect) = decided {
            return Ok(Step {
                value,
                exact: false,
                effect,
            });
        }
        let re = row_expr(layout, nparams, self.dep, row)?;
        // row·Δ ≤ −1, asked only when the interval admits a negative value
        let negative = re
            .checked_neg()?
            .checked_sub(&LinExpr::constant(re.nvars(), 1))?;
        let effect = if value.lo.is_none_or(|l| l < 0) && self.admits(negative, false) {
            RowEffect::Invalid
        } else if self.admits(re.clone(), true) {
            RowEffect::NonNegative(Some(re))
        } else {
            RowEffect::Satisfies
        };
        Ok(Step {
            value,
            exact: true,
            effect,
        })
    }

    /// Apply the verdict of an accepted row; what it changed, for
    /// [`DepState::revert`] (`None`: nothing).
    pub(crate) fn commit(&mut self, effect: RowEffect) -> Option<Undo> {
        match effect {
            RowEffect::Satisfies => {
                self.satisfied = true;
                Some(Undo::Unsatisfy)
            }
            RowEffect::NonNegative(Some(zero)) => {
                let before = self.context.clone();
                self.context
                    .get_or_insert_with(|| self.dep.system.clone())
                    .add_eq(zero);
                Some(Undo::Context(before))
            }
            RowEffect::NonNegative(None) => None,
            RowEffect::Invalid => unreachable!("an invalid row is never committed"),
        }
    }

    /// Take back a [`DepState::commit`].
    pub(crate) fn revert(&mut self, undo: Undo) {
        match undo {
            Undo::Unsatisfy => self.satisfied = false,
            Undo::Context(before) => self.context = before,
        }
    }
}

/// What one [`DepState::commit`] changed.
pub(crate) enum Undo {
    /// The row satisfied the dependence, which was active before it.
    Unsatisfy,
    /// The row pinned one more expression to zero; the context before it.
    Context(Option<System>),
}

/// Fresh state for every dependence.
pub(crate) fn build_states<'a>(
    layout: &InstanceLayout,
    deps: &'a DependenceMatrix,
) -> Vec<DepState<'a>> {
    deps.deps
        .iter()
        .enumerate()
        .map(|(idx, d)| DepState::new(idx, d, common_positions(layout, d)))
        .collect()
}

/// Step `row`, proposed for loop slot `slot`, against every active
/// dependence whose common loops include the slot. `Err(dep)` names the
/// first dependence (index into `deps.deps`) the row drives negative;
/// `Ok` carries the verdicts for [`commit_all`], keyed by state index.
pub(crate) fn step_all(
    layout: &InstanceLayout,
    nparams: usize,
    slot: usize,
    row: &[Int],
    states: &[DepState<'_>],
) -> Result<Result<Vec<(usize, RowEffect)>, usize>, InlError> {
    let mut effects = Vec::new();
    for (i, st) in states.iter().enumerate() {
        if st.satisfied || !st.common.contains(&slot) {
            continue;
        }
        match st.step(layout, nparams, row)?.effect {
            RowEffect::Invalid => return Ok(Err(st.idx)),
            RowEffect::NonNegative(None) => {}
            effect => effects.push((i, effect)),
        }
    }
    Ok(Ok(effects))
}

/// Commit a row that [`step_all`] accepted; what it changed, keyed by
/// state index, for [`revert_all`].
pub(crate) fn commit_all(
    states: &mut [DepState<'_>],
    effects: Vec<(usize, RowEffect)>,
) -> Vec<(usize, Undo)> {
    let commit = |(i, effect): (usize, RowEffect)| Some((i, states[i].commit(effect)?));
    effects.into_iter().filter_map(commit).collect()
}

/// Take back a [`commit_all`].
pub(crate) fn revert_all(states: &mut [DepState<'_>], undo: Vec<(usize, Undo)>) {
    for (i, u) in undo {
        states[i].revert(u);
    }
}
