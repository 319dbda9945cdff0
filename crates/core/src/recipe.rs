//! Variant recipes: the one owner of a transformation's name.
//!
//! A [`Recipe`] is what the scheduler (`inl-sched`) emits for a variant and
//! what the service (`inl-serve`) accepts as an `order`: an optional
//! structural [`Step`] that makes a *shape* of the source program, then a
//! signed loop order completed by [`crate::complete::complete_transform`].
//! Its `Display` and `FromStr` are the variant-label grammar:
//!
//! ```text
//! label := [step "/"] order
//! step  := "dist(" LOOP "@" CHILD ")" | "jam(" LOOP "+" LOOP ")" | "tile(" LOOP "@" SIZE ")"
//! order := one character per loop, or loop names joined by "."
//! ```
//!
//! each loop name in the order followed by `'` when its selector enters
//! reversed (§4.1). The order is dotted iff some name is longer than one
//! character: `KJ'LI`, `dist(J@1)/J'.J_2.I`, `tile(L@16)/K.Lo.J.L.I`.
//!
//! [`Shape::apply`] is the one place a step becomes a legal shape with its
//! dependences, [`Recipe::rows`] the one place an order becomes the partial
//! rows of a transformation, and [`Recipe::replay`] the one sequence that
//! turns a label into a variant: step, rows, completion.
//!
//! ```
//! use inl_core::recipe::{Recipe, Shape};
//!
//! let recipe: Recipe = "dist(J@1)/J'.J_2.I".parse()?;
//! assert_eq!(recipe.to_string(), "dist(J@1)/J'.J_2.I");
//! assert_eq!(recipe.reversals(), 1);
//! let source = Shape::source(inl_ir::zoo::running_example())?;
//! let (shape, completion) = recipe.replay(source)?.expect("a legal variant");
//! assert_eq!(completion.matrix.nrows(), shape.layout.len());
//! # Ok::<(), inl_linalg::InlError>(())
//! ```

use crate::complete::{complete_transform, Completion};
use crate::depend::{analyze, map, DependenceMatrix};
use crate::instance::InstanceLayout;
use crate::legal::check_structural;
use crate::structural::{distribute, jam};
use crate::tiling;
use inl_ir::{LoopId, Node, Program};
use inl_linalg::{IVec, InlError, InlErrorKind, Int};
use std::fmt;
use std::str::FromStr;

/// One structural step, named by loop names: a label's `dist(…)`, `jam(…)`
/// or `tile(…)` prefix.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Step {
    /// Distribute `loop` before its child `at` (§4.2).
    Distribute {
        /// Name of the distributed loop.
        r#loop: String,
        /// Index of the first child of the second part.
        at: usize,
    },
    /// Jam the adjacent sibling loops `first` and `second` (§4.2).
    Jam {
        /// Name of the first loop, which keeps its name.
        first: String,
        /// Name of the loop right after it.
        second: String,
    },
    /// Strip-mine `loop` by `tile` ([`crate::tiling`]).
    Split {
        /// Name of the split loop.
        r#loop: String,
        /// The tile size.
        tile: Int,
    },
}

impl Step {
    /// The one-level steps of `p`, in the order a search tries them: every
    /// loop with two or more children distributed before each child, every
    /// pair of adjacent sibling loops jammed. No `Split`: a tile is reached
    /// only through a label.
    pub fn candidates(p: &Program) -> Vec<Step> {
        let name = |l: LoopId| p.loop_decl(l).name.clone();
        let mut steps = Vec::new();
        for l in p.loops() {
            for at in 1..p.loop_decl(l).children.len() {
                let r#loop = name(l);
                steps.push(Step::Distribute { r#loop, at });
            }
        }
        for parent in std::iter::once(None).chain(p.loops().map(Some)) {
            for pair in p.children(parent).windows(2) {
                if let [Node::Loop(a), Node::Loop(b)] = *pair {
                    let (first, second) = (name(a), name(b));
                    steps.push(Step::Jam { first, second });
                }
            }
        }
        steps
    }
}

impl fmt::Display for Step {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Step::Distribute { r#loop, at } => write!(f, "dist({}@{at})", r#loop),
            Step::Jam { first, second } => write!(f, "jam({first}+{second})"),
            Step::Split { r#loop, tile } => write!(f, "tile({}@{tile})", r#loop),
        }
    }
}

/// A variant: an optional shape step, then a loop order whose names each
/// carry a reversal flag, outermost first.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Recipe {
    /// The structural step (`None`: the source program itself).
    pub shape: Option<Step>,
    /// `(loop name, reversed)` per loop slot, outermost first; a prefix
    /// while a search walks it.
    pub order: Vec<(String, bool)>,
}

impl Recipe {
    /// Reversed loops in the order.
    pub fn reversals(&self) -> usize {
        self.order.iter().filter(|&&(_, reversed)| reversed).count()
    }

    /// Bind the order to the (shaped) program `p`: one signed unit row per
    /// named loop, outermost slot first, the partial rows
    /// [`crate::complete::complete_transform`] completes. The order must name
    /// every loop the layout embeds exactly once (declarations that
    /// structural surgery detached are not loops of the layout); one of the
    /// wrong length, naming an unknown loop, or naming a loop twice is an
    /// [`inl_linalg::InlErrorKind::InvalidTarget`] error naming the recipe.
    pub fn rows(&self, p: &Program, layout: &InstanceLayout) -> Result<Vec<IVec>, InlError> {
        let err = |why: String| InlError::invalid_target(format!("order '{self}'"), why);
        let (named, has) = (self.order.len(), layout.loops().count());
        if named != has {
            let why = format!("names {named} loop(s); program '{}' has {has}", p.name());
            return Err(err(why));
        }
        let mut used = vec![false; layout.len()];
        let rows = self.order.iter().map(|(name, reversed)| {
            let pos = layout.loop_position(loop_named(p, layout, name).map_err(err)?);
            if std::mem::replace(&mut used[pos], true) {
                return Err(err(format!("names loop '{name}' twice")));
            }
            let unit = IVec::unit(layout.len(), pos);
            Ok(if *reversed { -&unit } else { unit })
        });
        rows.collect()
    }

    /// Replay the recipe on `source` as the scheduler builds a variant:
    /// [`Shape::apply`], [`rows`](Self::rows), completion. `Ok(Err(_))` when
    /// the dependences rule it out (an `Infeasible` completion); `Err(_)`
    /// when it names no loops of the program, its step does not apply, or
    /// the completion fails any other way (overflow, budget).
    pub fn replay(
        &self,
        source: Shape,
    ) -> Result<Result<(Shape, Completion), Rejection>, InlError> {
        let shape = match &self.shape {
            None => source,
            Some(step) => match source.apply(step)? {
                Some(shape) => shape,
                None => return Ok(Err(Rejection::Vetoed(step.clone()))),
            },
        };
        let rows = self.rows(&shape.program, &shape.layout)?;
        match complete_transform(&shape.program, &shape.layout, &shape.deps, &rows) {
            Ok(c) => Ok(Ok((shape, c))),
            Err(e) if e.kind() == InlErrorKind::Infeasible => Ok(Err(Rejection::Incomplete(e))),
            Err(e) => Err(e),
        }
    }
}

/// Why [`Recipe::replay`] found no legal variant.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Rejection {
    /// The dependence test vetoes the shape step.
    Vetoed(Step),
    /// The order's rows do not complete into a legal transformation: an
    /// `Infeasible` completion error.
    Incomplete(InlError),
}

impl fmt::Display for Rejection {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Rejection::Vetoed(step) => write!(f, "the dependence test vetoes shape {step}"),
            Rejection::Incomplete(e) => write!(f, "completion rejected the order: {}", e.message()),
        }
    }
}

impl fmt::Display for Recipe {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if let Some(step) = &self.shape {
            write!(f, "{step}/")?;
        }
        let dotted = self.order.iter().any(|(name, _)| name.len() != 1);
        for (i, (name, reversed)) in self.order.iter().enumerate() {
            let dot = if dotted && i > 0 { "." } else { "" };
            let mark = if *reversed { "'" } else { "" };
            write!(f, "{dot}{name}{mark}")?;
        }
        Ok(())
    }
}

impl FromStr for Recipe {
    type Err = InlError;

    /// Read a label. Only its syntax is checked here — the shape step and
    /// the reversal marks; whether the names are loops of a program is
    /// [`Shape::apply`]'s and [`Recipe::rows`]' question.
    fn from_str(s: &str) -> Result<Recipe, InlError> {
        let bad = |why: &str| InlError::invalid_target(format!("order '{s}'"), why);
        let (shape, order) = match s.split_once('/') {
            Some((step, order)) => (Some(parse_step(step).ok_or_else(|| bad(SHAPES))?), order),
            None => (None, s),
        };
        // undotted: one character per loop, with the marks that follow it
        let names: Vec<&str> = if order.contains('.') {
            order.split('.').collect()
        } else {
            let starts: Vec<usize> = order
                .char_indices()
                .filter(|&(i, ch)| i == 0 || ch != '\'')
                .map(|(i, _)| i)
                .chain([order.len()])
                .collect();
            starts.windows(2).map(|w| &order[w[0]..w[1]]).collect()
        };
        let order = names
            .into_iter()
            .map(|name| match name.strip_suffix('\'') {
                Some(bare) if bare.is_empty() || bare.ends_with('\'') => Err(bad(MARKS)),
                Some(bare) => Ok((bare.to_string(), true)),
                None => Ok((name.to_string(), false)),
            })
            .collect::<Result<_, _>>()?;
        Ok(Recipe { shape, order })
    }
}

const SHAPES: &str = "the shape is not dist(LOOP@CHILD), jam(LOOP+LOOP) or tile(LOOP@SIZE)";
const MARKS: &str = "a reversal mark ' follows a loop name, once";

/// `dist(L@k)`, `jam(L+M)` or `tile(L@T)`.
fn parse_step(s: &str) -> Option<Step> {
    let (kind, args) = s.strip_suffix(')')?.split_once('(')?;
    let (a, b) = args.split_once(if kind == "jam" { '+' } else { '@' })?;
    let (r#loop, first, second) = (a.to_string(), a.to_string(), b.to_string());
    match kind {
        "dist" => b.parse().ok().map(|at| Step::Distribute { r#loop, at }),
        "jam" => Some(Step::Jam { first, second }),
        "tile" => b.parse().ok().map(|tile| Step::Split { r#loop, tile }),
        _ => None,
    }
}

/// The loop named `name` among those the layout embeds (declarations that
/// structural surgery detached are not loops of the layout).
fn loop_named(p: &Program, layout: &InstanceLayout, name: &str) -> Result<LoopId, String> {
    let mut loops = layout.loops().map(|(_, l)| l);
    let found = loops.find(|&l| p.loop_decl(l).name == name);
    found.ok_or_else(|| format!("program '{}' has no loop '{name}'", p.name()))
}

/// One program shape with the one dependence matrix every candidate matrix
/// of the shape is tested against: analysed for the source and a split,
/// carried over from the parent's for a distribution or jam.
#[derive(Clone, Debug)]
pub struct Shape {
    /// The shaped program.
    pub program: Program,
    /// Instance layout of `program`.
    pub layout: InstanceLayout,
    /// Dependence matrix of `program` over `layout`.
    pub deps: DependenceMatrix,
}

impl Shape {
    /// The source program as a shape: laid out and analysed.
    pub fn source(program: Program) -> Result<Shape, InlError> {
        let layout = InstanceLayout::new(&program);
        let deps = analyze(&program, &layout)?;
        Ok(Shape {
            program,
            layout,
            deps,
        })
    }

    /// The shape `step` makes of this shape, laid out, with its
    /// dependences. Distribution and jamming are decided by Definition 6 on
    /// the step's matrix over this shape's dependences
    /// ([`check_structural`]), and the new shape's matrix is built from this
    /// shape's: the statement pairs the step leaves as they were keep their
    /// columns, the pairs it joins or separates are analysed, and the result
    /// equals [`analyze`] of the new program (the `depend.map` span; the
    /// analysis memo answers it when it holds the program). A split is
    /// decided on the split program's analysis
    /// ([`tiling::split_legal_with_deps`], which the shape keeps).
    ///
    /// `Ok(None)` when the dependence test vetoes the step; an
    /// [`inl_linalg::InlErrorKind::InvalidTarget`] error when it names no
    /// loop of the program, or loops it cannot apply to (a child index out
    /// of range, loops that are not adjacent siblings or have different
    /// bounds, a tile size below 2).
    pub fn apply(&self, step: &Step) -> Result<Option<Shape>, InlError> {
        let (p, layout, deps) = (&self.program, &self.layout, &self.deps);
        let err = |why: String| InlError::invalid_target(format!("shape '{step}'"), why);
        let named = |name: &str| loop_named(p, layout, name).map_err(err);
        let r = match step {
            Step::Distribute { r#loop, at } => distribute(p, layout, named(r#loop)?, *at)?,
            Step::Jam { first, second } => {
                let (a, b) = (named(first)?, named(second)?);
                let parent = p.loops_surrounding_loop(a).last().copied();
                let pair = [Node::Loop(a), Node::Loop(b)];
                let Some(idx) = p.children(parent).windows(2).position(|w| w == pair) else {
                    return Err(err("the loops are not adjacent siblings".into()));
                };
                jam(p, layout, parent, idx)?
            }
            Step::Split { r#loop, tile } => {
                let r = tiling::split(p, named(r#loop)?, *tile)?;
                let (report, deps) = tiling::split_legal_with_deps(&r)?;
                return Ok(report.is_legal().then_some(Shape {
                    program: r.program,
                    layout: r.layout,
                    deps,
                }));
            }
        };
        if !check_structural(p, layout, deps, &r, &step.to_string())? {
            return Ok(None);
        }
        Ok(Some(Shape {
            deps: map(p, layout, deps, &r.target, &r.target_layout)?,
            program: r.target,
            layout: r.target_layout,
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::complete::complete_transform;
    use inl_ir::zoo;

    fn looop(p: &Program, name: &str) -> LoopId {
        p.loops().find(|&l| p.loop_decl(l).name == name).unwrap()
    }

    fn order_rows(
        p: &Program,
        layout: &InstanceLayout,
        order: &str,
    ) -> Result<Vec<IVec>, InlError> {
        order.parse::<Recipe>()?.rows(p, layout)
    }

    #[test]
    fn rows_read_both_spellings() {
        let p = zoo::cholesky_kij();
        let layout = InstanceLayout::new(&p);
        let units = |p: &Program, layout: &InstanceLayout, names: &[&str]| -> Vec<IVec> {
            names
                .iter()
                .map(|n| IVec::unit(layout.len(), layout.loop_position(looop(p, n))))
                .collect()
        };
        let want = units(&p, &layout, &["K", "J", "L", "I"]);
        assert_eq!(order_rows(&p, &layout, "KJLI").expect("undotted"), want);
        assert_eq!(order_rows(&p, &layout, "K.J.L.I").expect("dotted"), want);

        // a loop name of two characters can only be spelt dotted
        let p = zoo::lu_kij();
        let layout = InstanceLayout::new(&p);
        assert_eq!(
            order_rows(&p, &layout, "K.I2.J.I").expect("dotted"),
            units(&p, &layout, &["K", "I2", "J", "I"])
        );
    }

    #[test]
    fn rows_rejections_name_the_order() {
        let p = zoo::lu_kij();
        let layout = InstanceLayout::new(&p);
        for (order, complaint) in [
            ("K.I2.J", "names 3 loop(s); program 'lu_kij' has 4"),
            ("KIJ", "names 3 loop(s)"),
            ("KI2J", "has no loop '2'"),
            ("K.I2.J.J", "names loop 'J' twice"),
            ("K.I2.J.Q", "has no loop 'Q'"),
            ("K.I2.J.", "has no loop ''"),
            ("", "names 0 loop(s)"),
        ] {
            let e = order_rows(&p, &layout, order).expect_err(order);
            assert_eq!(e.kind(), InlErrorKind::InvalidTarget, "{order}");
            assert!(
                e.message().starts_with(&format!("order '{order}': ")),
                "{e}"
            );
            assert!(e.message().contains(complaint), "{order}: {e}");
        }
    }

    #[test]
    fn rows_count_only_loops_the_layout_embeds() {
        // jamming leaves the fused-away loop in the declaration table; it
        // is not a loop of the jammed program's layout, so an order names
        // two loops, not three
        let p = zoo::distributed_simple_cholesky();
        let layout = InstanceLayout::new(&p);
        let jammed = crate::structural::jam(&p, &layout, None, 0)
            .expect("jams")
            .target;
        assert_eq!(jammed.loops().count(), 3, "a detached declaration remains");
        let jl = InstanceLayout::new(&jammed);
        let rows = order_rows(&jammed, &jl, "IJ").expect("the two embedded loops");
        let deps = analyze(&jammed, &jl).expect("analysis");
        assert!(complete_transform(&jammed, &jl, &deps, &rows).is_ok());
        let e = order_rows(&jammed, &jl, "I.I2.J").expect_err("I2 was fused away");
        assert!(e.message().contains("names 3 loop(s)"), "{e}");
    }

    #[test]
    fn labels_round_trip_and_reversed_rows_are_negated() {
        for label in [
            "KJLI",
            "KL'I",
            "jam(I+J)/KL'I",
            "dist(J@1)/J'.J_2.I",
            "tile(L@16)/K.Lo.J.L.I",
            "K.I2.J.I",
            "",
        ] {
            let r: Recipe = label.parse().expect(label);
            assert_eq!(r.to_string(), label);
        }
        let r: Recipe = "jam(I+J)/KL'I".parse().expect("parses");
        assert_eq!(
            r.shape,
            Some(Step::Jam {
                first: "I".into(),
                second: "J".into()
            })
        );
        assert_eq!(r.reversals(), 1);
        let p = zoo::cholesky_kij();
        let layout = InstanceLayout::new(&p);
        let rows = order_rows(&p, &layout, "KJL'I").expect("binds");
        let l = IVec::unit(layout.len(), layout.loop_position(looop(&p, "L")));
        assert_eq!(rows[2], -&l);
    }

    #[test]
    fn malformed_labels_are_typed_errors() {
        for label in [
            "KJ''LI",
            "'KJLI",
            "K.'.J.L",
            "/KJLI",
            "dist(K@x)/KJLI",
            "dist(K@1/KJLI",
            "jam(I)/KJLI",
            "skew(K@1)/KJLI",
            "tile(L@999999999999999999999999999999999999999999)/KJLI",
        ] {
            let e = label.parse::<Recipe>().expect_err(label);
            assert_eq!(e.kind(), InlErrorKind::InvalidTarget, "{label}");
            assert!(
                e.message().starts_with(&format!("order '{label}': ")),
                "{e}"
            );
        }
        // well-formed, but no loops of the program
        let p = zoo::cholesky_kij();
        let layout = InstanceLayout::new(&p);
        for (label, complaint) in [
            ("K.J.L.", "has no loop ''"),
            ("tile(L@16)", "names 10 loop(s)"),
        ] {
            let e = order_rows(&p, &layout, label).expect_err(label);
            assert_eq!(e.kind(), InlErrorKind::InvalidTarget, "{label}");
            assert!(e.message().contains(complaint), "{label}: {e}");
        }
    }

    #[test]
    fn steps_that_do_not_apply_are_typed_errors_and_vetoes_are_none() {
        let source = Shape::source(zoo::cholesky_kij()).expect("analyses");
        for (step, complaint) in [
            ("tile(L@0)", "tile size 0"),
            ("tile(Q@16)", "has no loop 'Q'"),
            ("dist(K@9)", "out of range"),
            ("jam(I+I)", "not adjacent"),
            ("jam(K+L)", "not adjacent"),
        ] {
            let step = parse_step(step).expect(step);
            let e = source.apply(&step).expect_err(complaint);
            assert_eq!(e.kind(), InlErrorKind::InvalidTarget, "{step}");
            assert!(e.to_string().contains(complaint), "{step}: {e}");
        }
        // simple Cholesky's I loop cannot be distributed: S2 writes the
        // cells S1 reads on later trips of I
        let source = Shape::source(zoo::simple_cholesky()).expect("analyses");
        let veto = parse_step("dist(I@1)").expect("parses");
        assert!(source.apply(&veto).expect("applies").is_none());
    }

    #[test]
    fn replay_tells_a_veto_from_an_order_that_does_not_complete() {
        let replay = |p: Program, label: &str| {
            let source = Shape::source(p).expect("analyses");
            label.parse::<Recipe>().expect(label).replay(source)
        };
        let (shape, c) = replay(zoo::cholesky_kij(), "KJLI")
            .expect("binds")
            .expect("legal");
        assert!(c.report.is_legal());
        assert_eq!(c.matrix.nrows(), shape.layout.len());
        // the step is vetoed before the order is read
        let veto = replay(zoo::simple_cholesky(), "dist(I@1)/Q").expect("applies");
        let step = parse_step("dist(I@1)").expect("parses");
        assert_eq!(veto.expect_err("vetoed"), Rejection::Vetoed(step));
        let why = replay(zoo::cholesky_kij(), "IKJL").expect("binds");
        let why = why.expect_err("does not complete");
        assert!(matches!(why, Rejection::Incomplete(_)), "{why:?}");
        assert_eq!(
            why.to_string(),
            "completion rejected the order: row 0 is illegal"
        );
        let e = replay(zoo::lu_kij(), "KIJ").expect_err("names 3 of 4 loops");
        assert_eq!(e.kind(), InlErrorKind::InvalidTarget);
    }

    #[test]
    fn every_rejected_cholesky_order_is_infeasible_and_says_so_without_a_location() {
        // the service answers these 12 orders "rejected": each must be the
        // dependences ruling the order out, and its text kind-free and
        // location-free
        let p = zoo::cholesky_kij();
        let names: Vec<String> = p.loops().map(|l| p.loop_decl(l).name.clone()).collect();
        let mut rejected = 0;
        for order in inl_linalg::permutations(&names) {
            let source = Shape::source(p.clone()).expect("analyses");
            let recipe: Recipe = order.concat().parse().expect("parses");
            let Err(why) = recipe.replay(source).expect("binds") else {
                continue;
            };
            rejected += 1;
            let Rejection::Incomplete(e) = &why else {
                panic!("{recipe}: no step to veto, got {why:?}");
            };
            assert_eq!(e.kind(), InlErrorKind::Infeasible, "{recipe}: {e}");
            let text = why.to_string();
            assert!(
                text.starts_with("completion rejected the order: "),
                "{text}"
            );
            assert!(!text.contains(".rs:"), "{recipe}: {text}");
        }
        assert_eq!(rejected, 12);
    }

    #[test]
    fn a_jam_whose_crossing_dependence_an_outer_loop_carries_is_legal() {
        // do P { do I: A[P][I] = I+P ; do J: B[P][J] = A[P-1][N+1-J] }:
        // the flow from I into J runs backwards across the fused index
        // (J < N+1-J on half the pairs), but P carries all of it, so the
        // jam keeps every dependence's order
        use inl_ir::{Aff, Expr, ProgramBuilder};
        let mut b = ProgramBuilder::new("outer_carried_jam");
        let n = b.param("N");
        let ext = [Aff::param(n) + Aff::konst(2), Aff::param(n) + Aff::konst(2)];
        let (x, y) = (b.array("A", &ext), b.array("B", &ext));
        b.hloop("P", Aff::konst(1), Aff::param(n), |b| {
            let q = b.loop_var("P");
            b.hloop("I", Aff::konst(1), Aff::param(n), |b| {
                let i = b.loop_var("I");
                let at = vec![Aff::var(q), Aff::var(i)];
                b.stmt("S1", x, at, Expr::index(Aff::var(i) + Aff::var(q)));
            });
            b.hloop("J", Aff::konst(1), Aff::param(n), |b| {
                let j = b.loop_var("J");
                let back = Aff::param(n) + Aff::konst(1) - Aff::var(j);
                let read = Expr::read(x, vec![Aff::var(q) - Aff::konst(1), back]);
                b.stmt("S2", y, vec![Aff::var(q), Aff::var(j)], read);
            });
        });
        let p = b.finish();
        let jam = Step::Jam {
            first: "I".into(),
            second: "J".into(),
        };
        let source = Shape::source(p.clone()).expect("analyses");
        let shape = source.apply(&jam).expect("applies").expect("legal");
        let init = |_: &str, idx: &[usize]| idx.iter().fold(0.5, |h, &i| h * 3.0 + i as f64);
        inl_exec::equivalent(&p, &shape.program, &[7], &init).expect("same memory image");
    }
}
