//! Pseudo-code rendering of programs, matching the paper's `do` notation.

use crate::aff::{Aff, VarKey};
use crate::expr::{Access, Expr};
use crate::program::{Bound, Guard, Node, Program};
use std::fmt::{self, Display, Write};

impl Program {
    /// Human-readable name of a variable.
    pub fn var_name(&self, v: VarKey) -> &str {
        match v {
            VarKey::Param(p) => &self.params[p.0],
            VarKey::Loop(l) => &self.loops[l.0].name,
        }
    }

    /// Render the whole program as indented pseudo-code.
    pub fn to_pseudocode(&self) -> String {
        let mut out = String::new();
        self.render_nodes(&self.root, 0, &mut out);
        out
    }

    fn render_nodes(&self, nodes: &[Node], depth: usize, out: &mut String) {
        // two spaces a level
        let pad = |out: &mut String, depth: usize| write!(out, "{:1$}", "", 2 * depth);
        for &n in nodes {
            let _ = pad(out, depth);
            match n {
                Node::Loop(l) => {
                    let ld = &self.loops[l.0];
                    let par = if ld.parallel { " parallel" } else { "" };
                    let lower = Shown(self, (&ld.lower, true));
                    let upper = Shown(self, (&ld.upper, false));
                    let _ = write!(out, "do{par} {} = {lower}..{upper}", ld.name);
                    if ld.step != 1 {
                        let _ = write!(out, " step {}", ld.step);
                    }
                    out.push('\n');
                    self.render_nodes(&ld.children, depth + 1, out);
                }
                Node::Stmt(s) => {
                    let sd = &self.stmts[s.0];
                    // each guard opens a level
                    for (d, g) in (depth + 1..).zip(&sd.guards) {
                        let _ = writeln!(out, "if ({})", Shown(self, g));
                        let _ = pad(out, d);
                    }
                    let (write, rhs) = (Shown(self, &sd.write), Shown(self, &sd.rhs));
                    let _ = writeln!(out, "{}: {write} = {rhs}", sd.name);
                }
            }
        }
    }
}

/// A part of a program rendered with the program's names, written
/// straight into the output.
struct Shown<'a, T>(&'a Program, T);

impl Display for Shown<'_, &Aff> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = |v: VarKey| self.0.var_name(v);
        write!(f, "{}", self.1.display_with(&name))
    }
}

/// A bound, and whether it is a lower one (`max`) or an upper one (`min`).
impl Display for Shown<'_, (&Bound, bool)> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (b, lower) = self.1;
        if let [t] = b.terms.as_slice() {
            return write!(f, "{}", Shown(self.0, t));
        }
        write!(f, "{}(", if lower { "max" } else { "min" })?;
        for (i, t) in b.terms.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            write!(f, "{sep}{}", Shown(self.0, t))?;
        }
        write!(f, ")")
    }
}

impl Display for Shown<'_, &Access> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let a = self.1;
        write!(f, "{}[", self.0.arrays[a.array.0].name)?;
        for (i, idx) in a.idxs.iter().enumerate() {
            let sep = if i == 0 { "" } else { "][" };
            write!(f, "{sep}{}", Shown(self.0, idx))?;
        }
        write!(f, "]")
    }
}

impl Display for Shown<'_, &Expr> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let p = self.0;
        let bin = |f: &mut fmt::Formatter<'_>, a: &Expr, op: &str, b: &Expr| {
            write!(f, "({} {op} {})", Shown(p, a), Shown(p, b))
        };
        match self.1 {
            Expr::Const(v) => write!(f, "{v}"),
            Expr::Index(a) => write!(f, "val({})", Shown(p, a)),
            Expr::Read(a) => write!(f, "{}", Shown(p, a)),
            Expr::Neg(x) => write!(f, "-({})", Shown(p, &**x)),
            Expr::Sqrt(x) => write!(f, "sqrt({})", Shown(p, &**x)),
            Expr::Add(a, b) => bin(f, a, "+", b),
            Expr::Sub(a, b) => bin(f, a, "-", b),
            Expr::Mul(a, b) => bin(f, a, "*", b),
            Expr::Div(a, b) => bin(f, a, "/", b),
        }
    }
}

impl Display for Shown<'_, &Guard> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.1 {
            Guard::Ge(a) => write!(f, "{} >= 0", Shown(self.0, a)),
            Guard::Eq(a) => write!(f, "{} == 0", Shown(self.0, a)),
            Guard::Div(a, m) => write!(f, "({}) mod {m} == 0", Shown(self.0, a)),
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::zoo;

    #[test]
    fn simple_cholesky_pseudocode() {
        let p = zoo::simple_cholesky();
        let code = p.to_pseudocode();
        assert!(code.contains("do I = 1..N"), "{code}");
        assert!(code.contains("do J = I + 1..N"), "{code}");
        assert!(code.contains("S1: A[I] = sqrt(A[I])"), "{code}");
        assert!(code.contains("S2: A[J] = (A[J] / A[I])"), "{code}");
        // indentation reflects nesting
        let lines: Vec<&str> = code.lines().collect();
        assert!(lines[0].starts_with("do"), "{code}");
        assert!(lines[1].starts_with("  S1"), "{code}");
        assert!(lines[2].starts_with("  do J"), "{code}");
        assert!(lines[3].starts_with("    S2"), "{code}");
    }

    #[test]
    fn cholesky_kij_pseudocode() {
        let p = zoo::cholesky_kij();
        let code = p.to_pseudocode();
        assert!(code.contains("do K = 1..N"), "{code}");
        assert!(code.contains("do L = K + 1..J"), "{code}");
        assert!(
            code.contains("S3: A[J][L] = (A[J][L] - (A[J][K] * A[L][K]))"),
            "{code}"
        );
    }
}
