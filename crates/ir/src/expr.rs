//! The expression AST of scalar values used in compute bodies and tensor index expressions.
//!
//! Expressions are untyped at construction and evaluated dynamically by the
//! interpreter to either an integer (for index arithmetic) or a float (for
//! tensor values). This mirrors how TVM's `PrimExpr` is used by FlexTensor's
//! front-end: the auto-scheduler only needs to *inspect* expressions (which
//! tensors are loaded with which index patterns), not to type-check them.

use std::fmt;
use std::ops;

/// A comparison operator appearing inside [`Expr::Select`] conditions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CmpOp {
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// `==`
    Eq,
    /// `!=`
    Ne,
}

impl fmt::Display for CmpOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            CmpOp::Lt => "<",
            CmpOp::Le => "<=",
            CmpOp::Gt => ">",
            CmpOp::Ge => ">=",
            CmpOp::Eq => "==",
            CmpOp::Ne => "!=",
        };
        f.write_str(s)
    }
}

/// A binary arithmetic operator.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BinOp {
    /// Addition.
    Add,
    /// Subtraction.
    Sub,
    /// Multiplication.
    Mul,
    /// Division (integer division on integers, `/` on floats).
    Div,
    /// Euclidean remainder (only meaningful on integers).
    Mod,
    /// Minimum of the two operands.
    Min,
    /// Maximum of the two operands.
    Max,
}

impl fmt::Display for BinOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            BinOp::Add => "+",
            BinOp::Sub => "-",
            BinOp::Mul => "*",
            BinOp::Div => "/",
            BinOp::Mod => "%",
            BinOp::Min => "min",
            BinOp::Max => "max",
        };
        f.write_str(s)
    }
}

/// A boolean condition over scalar expressions.
///
/// Conditions appear in [`Expr::Select`], which is how padding and boundary
/// handling are expressed (e.g. the zero-padding node of a convolution).
#[derive(Debug, Clone, PartialEq)]
pub enum Cond {
    /// Comparison of two scalar expressions.
    Cmp(CmpOp, Box<Expr>, Box<Expr>),
    /// Logical and.
    And(Box<Cond>, Box<Cond>),
    /// Logical or.
    Or(Box<Cond>, Box<Cond>),
    /// Logical not.
    Not(Box<Cond>),
}

impl Cond {
    /// Conjunction of `self` and `other`.
    pub fn and(self, other: Cond) -> Cond {
        Cond::And(Box::new(self), Box::new(other))
    }

    /// Disjunction of `self` and `other`.
    pub fn or(self, other: Cond) -> Cond {
        Cond::Or(Box::new(self), Box::new(other))
    }

    /// Negation of `self`.
    #[allow(clippy::should_implement_trait)]
    pub fn not(self) -> Cond {
        Cond::Not(Box::new(self))
    }

    /// Collects the names of all variables referenced by this condition.
    pub fn collect_vars(&self, out: &mut Vec<String>) {
        match self {
            Cond::Cmp(_, a, b) => {
                a.collect_vars(out);
                b.collect_vars(out);
            }
            Cond::And(a, b) | Cond::Or(a, b) => {
                a.collect_vars(out);
                b.collect_vars(out);
            }
            Cond::Not(a) => a.collect_vars(out),
        }
    }
}

impl fmt::Display for Cond {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Cond::Cmp(op, a, b) => write!(f, "({a} {op} {b})"),
            Cond::And(a, b) => write!(f, "({a} && {b})"),
            Cond::Or(a, b) => write!(f, "({a} || {b})"),
            Cond::Not(a) => write!(f, "!{a}"),
        }
    }
}

/// A scalar expression.
///
/// The same AST is used for tensor *values* (float arithmetic over loads) and
/// tensor *indices* (integer arithmetic over loop variables). The
/// interpreter in `flextensor-interp` evaluates either flavor.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// Floating-point constant.
    FConst(f64),
    /// Integer constant.
    IConst(i64),
    /// Reference to a loop variable (a spatial or reduce axis) by name.
    Var(String),
    /// Binary arithmetic.
    Bin(BinOp, Box<Expr>, Box<Expr>),
    /// `if cond then a else b` — used for padding / boundary conditions.
    Select(Box<Cond>, Box<Expr>, Box<Expr>),
    /// Read `tensor[indices...]`.
    Load {
        /// Name of the tensor being read.
        tensor: String,
        /// One index expression per tensor dimension.
        indices: Vec<Expr>,
    },
}

impl Expr {
    /// Integer constant helper.
    pub fn int(v: i64) -> Expr {
        Expr::IConst(v)
    }

    /// Floating-point constant helper.
    pub fn float(v: f64) -> Expr {
        Expr::FConst(v)
    }

    /// Loop-variable reference helper.
    pub fn var(name: impl Into<String>) -> Expr {
        Expr::Var(name.into())
    }

    /// Tensor load helper.
    pub fn load(tensor: impl Into<String>, indices: Vec<Expr>) -> Expr {
        Expr::Load {
            tensor: tensor.into(),
            indices,
        }
    }

    /// `min(self, other)`.
    pub fn min(self, other: Expr) -> Expr {
        Expr::Bin(BinOp::Min, Box::new(self), Box::new(other))
    }

    /// `max(self, other)`.
    pub fn max(self, other: Expr) -> Expr {
        Expr::Bin(BinOp::Max, Box::new(self), Box::new(other))
    }

    /// Euclidean remainder `self % other`.
    #[allow(clippy::should_implement_trait)] // named for the math, not the operator
    pub fn rem(self, other: Expr) -> Expr {
        Expr::Bin(BinOp::Mod, Box::new(self), Box::new(other))
    }

    /// Comparison producing a [`Cond`].
    pub fn cmp(self, op: CmpOp, other: Expr) -> Cond {
        Cond::Cmp(op, Box::new(self), Box::new(other))
    }

    /// `self < other`.
    pub fn lt(self, other: Expr) -> Cond {
        self.cmp(CmpOp::Lt, other)
    }

    /// `self >= other`.
    pub fn ge(self, other: Expr) -> Cond {
        self.cmp(CmpOp::Ge, other)
    }

    /// `self == other`.
    pub fn eq_(self, other: Expr) -> Cond {
        self.cmp(CmpOp::Eq, other)
    }

    /// `if cond { self } else { other }`.
    pub fn select(cond: Cond, then: Expr, otherwise: Expr) -> Expr {
        Expr::Select(Box::new(cond), Box::new(then), Box::new(otherwise))
    }

    /// Collects the names of all variables referenced by this expression
    /// (including those inside select conditions and load indices).
    pub fn collect_vars(&self, out: &mut Vec<String>) {
        match self {
            Expr::FConst(_) | Expr::IConst(_) => {}
            Expr::Var(name) => {
                if !out.iter().any(|v| v == name) {
                    out.push(name.clone());
                }
            }
            Expr::Bin(_, a, b) => {
                a.collect_vars(out);
                b.collect_vars(out);
            }
            Expr::Select(c, a, b) => {
                c.collect_vars(out);
                a.collect_vars(out);
                b.collect_vars(out);
            }
            Expr::Load { indices, .. } => {
                for ix in indices {
                    ix.collect_vars(out);
                }
            }
        }
    }

    /// Collects the names of all tensors loaded by this expression, in first
    /// occurrence order, without duplicates.
    pub fn collect_loads(&self, out: &mut Vec<String>) {
        match self {
            Expr::FConst(_) | Expr::IConst(_) | Expr::Var(_) => {}
            Expr::Bin(_, a, b) => {
                a.collect_loads(out);
                b.collect_loads(out);
            }
            Expr::Select(c, a, b) => {
                // Conditions cannot load tensors in this IR, but walk the
                // sub-conditions' expressions anyway for future-proofing.
                fn walk_cond(c: &Cond, out: &mut Vec<String>) {
                    match c {
                        Cond::Cmp(_, a, b) => {
                            a.collect_loads(out);
                            b.collect_loads(out);
                        }
                        Cond::And(a, b) | Cond::Or(a, b) => {
                            walk_cond(a, out);
                            walk_cond(b, out);
                        }
                        Cond::Not(a) => walk_cond(a, out),
                    }
                }
                walk_cond(c, out);
                a.collect_loads(out);
                b.collect_loads(out);
            }
            Expr::Load { tensor, indices } => {
                if !out.iter().any(|t| t == tensor) {
                    out.push(tensor.clone());
                }
                for ix in indices {
                    ix.collect_loads(out);
                }
            }
        }
    }

    /// Counts the floating-point arithmetic operations performed per
    /// evaluation of this expression (adds, subs, muls, divs, mins, maxes).
    ///
    /// Index arithmetic inside `Load` is *not* counted: it is address
    /// computation, not tensor arithmetic. `Select` counts the maximum of
    /// its branches (a data-dependent bound).
    pub fn count_flops(&self) -> u64 {
        match self {
            Expr::FConst(_) | Expr::IConst(_) | Expr::Var(_) => 0,
            Expr::Bin(_, a, b) => 1 + a.count_flops() + b.count_flops(),
            Expr::Select(_, a, b) => a.count_flops().max(b.count_flops()),
            Expr::Load { .. } => 0,
        }
    }

    /// Substitutes every occurrence of variable `name` with `value`.
    pub fn substitute(&self, name: &str, value: &Expr) -> Expr {
        match self {
            Expr::FConst(_) | Expr::IConst(_) => self.clone(),
            Expr::Var(n) => {
                if n == name {
                    value.clone()
                } else {
                    self.clone()
                }
            }
            Expr::Bin(op, a, b) => Expr::Bin(
                *op,
                Box::new(a.substitute(name, value)),
                Box::new(b.substitute(name, value)),
            ),
            Expr::Select(c, a, b) => Expr::Select(
                Box::new(substitute_cond(c, name, value)),
                Box::new(a.substitute(name, value)),
                Box::new(b.substitute(name, value)),
            ),
            Expr::Load { tensor, indices } => Expr::Load {
                tensor: tensor.clone(),
                indices: indices
                    .iter()
                    .map(|ix| ix.substitute(name, value))
                    .collect(),
            },
        }
    }
}

fn substitute_cond(c: &Cond, name: &str, value: &Expr) -> Cond {
    match c {
        Cond::Cmp(op, a, b) => Cond::Cmp(
            *op,
            Box::new(a.substitute(name, value)),
            Box::new(b.substitute(name, value)),
        ),
        Cond::And(a, b) => Cond::And(
            Box::new(substitute_cond(a, name, value)),
            Box::new(substitute_cond(b, name, value)),
        ),
        Cond::Or(a, b) => Cond::Or(
            Box::new(substitute_cond(a, name, value)),
            Box::new(substitute_cond(b, name, value)),
        ),
        Cond::Not(a) => Cond::Not(Box::new(substitute_cond(a, name, value))),
    }
}

impl fmt::Display for Expr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Expr::FConst(v) => write!(f, "{v}"),
            Expr::IConst(v) => write!(f, "{v}"),
            Expr::Var(n) => f.write_str(n),
            Expr::Bin(op @ (BinOp::Min | BinOp::Max), a, b) => write!(f, "{op}({a}, {b})"),
            Expr::Bin(op, a, b) => write!(f, "({a} {op} {b})"),
            Expr::Select(c, a, b) => write!(f, "select({c}, {a}, {b})"),
            Expr::Load { tensor, indices } => {
                write!(f, "{tensor}[")?;
                for (i, ix) in indices.iter().enumerate() {
                    if i > 0 {
                        f.write_str(", ")?;
                    }
                    write!(f, "{ix}")?;
                }
                f.write_str("]")
            }
        }
    }
}

impl From<i64> for Expr {
    fn from(v: i64) -> Self {
        Expr::IConst(v)
    }
}

impl From<f64> for Expr {
    fn from(v: f64) -> Self {
        Expr::FConst(v)
    }
}

macro_rules! impl_binop {
    ($trait:ident, $method:ident, $op:expr) => {
        impl ops::$trait for Expr {
            type Output = Expr;
            fn $method(self, rhs: Expr) -> Expr {
                Expr::Bin($op, Box::new(self), Box::new(rhs))
            }
        }
        impl ops::$trait<i64> for Expr {
            type Output = Expr;
            fn $method(self, rhs: i64) -> Expr {
                Expr::Bin($op, Box::new(self), Box::new(Expr::IConst(rhs)))
            }
        }
        impl ops::$trait<Expr> for i64 {
            type Output = Expr;
            fn $method(self, rhs: Expr) -> Expr {
                Expr::Bin($op, Box::new(Expr::IConst(self)), Box::new(rhs))
            }
        }
    };
}

impl_binop!(Add, add, BinOp::Add);
impl_binop!(Sub, sub, BinOp::Sub);
impl_binop!(Mul, mul, BinOp::Mul);
impl_binop!(Div, div, BinOp::Div);

#[cfg(test)]
mod tests {
    use super::*;

    fn v(n: &str) -> Expr {
        Expr::var(n)
    }

    #[test]
    fn operator_overloads_build_expected_tree() {
        let e = v("i") * 2 + v("j");
        match e {
            Expr::Bin(BinOp::Add, lhs, rhs) => {
                assert!(matches!(*lhs, Expr::Bin(BinOp::Mul, _, _)));
                assert_eq!(*rhs, Expr::Var("j".into()));
            }
            other => panic!("unexpected tree: {other:?}"),
        }
    }

    #[test]
    fn collect_vars_dedups_and_descends_into_loads() {
        let e = Expr::load("A", vec![v("i"), v("k") + v("i")]) * Expr::load("B", vec![v("k")]);
        let mut vars = Vec::new();
        e.collect_vars(&mut vars);
        assert_eq!(vars, vec!["i".to_string(), "k".to_string()]);
    }

    #[test]
    fn collect_loads_orders_by_first_occurrence() {
        let e = Expr::load("A", vec![v("i")]) * Expr::load("B", vec![v("j")])
            + Expr::load("A", vec![v("j")]);
        let mut loads = Vec::new();
        e.collect_loads(&mut loads);
        assert_eq!(loads, vec!["A".to_string(), "B".to_string()]);
    }

    #[test]
    fn count_flops_handles_mul_add() {
        // A[i] * B[i] + C[i]: one mul, one add.
        let e = Expr::load("A", vec![v("i")]) * Expr::load("B", vec![v("i")])
            + Expr::load("C", vec![v("i")]);
        assert_eq!(e.count_flops(), 2);
    }

    #[test]
    fn count_flops_ignores_index_arithmetic() {
        let e = Expr::load("A", vec![v("i") * 2 + 1]);
        assert_eq!(e.count_flops(), 0);
    }

    #[test]
    fn substitute_replaces_everywhere() {
        let e = Expr::load("A", vec![v("i") + v("rx")]) * v("rx");
        let s = e.substitute("rx", &Expr::int(3));
        let mut vars = Vec::new();
        s.collect_vars(&mut vars);
        assert_eq!(vars, vec!["i".to_string()]);
    }

    #[test]
    fn select_display_is_readable() {
        let e = Expr::select(
            v("i").lt(Expr::int(4)),
            Expr::load("A", vec![v("i")]),
            Expr::float(0.0),
        );
        assert_eq!(format!("{e}"), "select((i < 4), A[i], 0)");
    }
}
