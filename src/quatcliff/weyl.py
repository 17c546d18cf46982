"""Operators in normal form in the Weyl algebra tensor End(S).

Over n complex variables the 2n commuting variables are z_1..z_n and
zbar_1..zbar_n, at indices 0..n-1 and n..2n-1.  A normal form is a dict
{(X, D, out_mask, in_mask): coefficient}, the sum of
coefficient * x^X d^D tensor E_{out, in}: the monomial x^X (every
variable to the left) times the derivative d^D, tensor the spinor
matrix unit sending fdag_in I to fdag_out I.

A word of operators.term_table splits exactly into its scalar moves
and its value moves, which commute (see operators).  Its scalar moves
are x_i (`mul_*_var`), d_i (`diff_*`) and sum_i x_i d_i over one block
of variables (`scale_by_euler`), multiplied left to right; its value
moves give the signed matrix {(out, in): +-1} that walking each mask
through them with witt.witt_move, rightmost first, makes.  Products are
brought to normal order per variable by the Leibniz rule

    d^a x^b = sum_j C(a, j) b!/(b-j)! x^(b-j) d^(a-j),

and the matrices compose; the scalar part is all even, so no sign
enters.

Why equal normal forms prove an identity in every degree: in
characteristic 0 the normal-ordered Weyl monomials x^X d^D are linearly
independent operators on polynomials, and the Weyl algebra is simple,
so Weyl tensor End(S), a full matrix algebra over it, acts faithfully
on polynomials tensor S.  Two operators with the same normal form are
therefore equal on every bihomogeneous space P_{a,b} tensor S, and an
operator whose normal form is empty is zero on all of them.
"""

from functools import cache
from itertools import product
from math import comb, perm

from .operators import term_table
from .witt import witt_move

__all__ = ["normal_form", "compose"]


@cache
def _times(X1, D1, X2, D2):
    """x^X1 d^D1 x^X2 d^D2 in normal order, as (X, D, factor) triples:
    d^D1 x^X2 is reordered by the Leibniz rule, one variable at a time."""
    per_variable = [[(b - j, a - j, comb(a, j) * perm(b, j))
                     for j in range(min(a, b) + 1)]
                    for a, b in zip(D1, X2)]
    out = []
    for choice in product(*per_variable):
        f = 1
        for *_, c in choice:
            f *= c
        out.append((tuple(x + y for (y, _, _), x in zip(choice, X1)),
                    tuple(d + y for (_, y, _), d in zip(choice, D2)), f))
    return tuple(out)


def compose(left, right):
    """The normal form of the product left * right (right acts first)."""
    by_out = {}
    for (X, D, o, i), c in right.items():
        by_out.setdefault(o, []).append((X, D, i, c))
    out = {}
    for (X1, D1, o1, i1), c1 in left.items():
        for X2, D2, i2, c2 in by_out.get(i1, ()):
            c = c1 * c2
            for X, D, f in _times(X1, D1, X2, D2):
                key = (X, D, o1, i2)
                cur = out.get(key)
                out[key] = c * f if cur is None else cur + c * f
    return {key: c for key, c in out.items() if c}


def _scalar_move(move, arg, n):
    """The normal form of one scalar move, on the spinor index (0, 0)."""
    zero = (0,) * (2 * n)

    def unit(i):
        return zero[:i] + (1,) + zero[i + 1:]
    if move == "scale_by_euler":
        block = range(n) if arg == "z" else range(n, 2 * n)
        return {(unit(i), unit(i), 0, 0): 1 for i in block}
    i = arg - 1 + (n if "zbar" in move else 0)
    if move.startswith("mul"):
        return {(unit(i), zero, 0, 0): 1}
    return {(zero, unit(i), 0, 0): 1}


def _word_form(word, n):
    """The normal form of one word of a term table."""
    zero = (0,) * (2 * n)
    scalar = {(zero, zero, 0, 0): 1}
    values = []
    for move, arg in word:
        if move in ("wedge", "contract"):
            values.append((arg, move == "wedge"))
        else:
            scalar = compose(scalar, _scalar_move(move, arg, n))
    matrix = {}
    for mask in range(1 << n):
        out, sign = mask, 1
        for k, dagger in reversed(values):
            hit = witt_move(out, k, dagger)
            if hit is None:
                break
            out, negate = hit
            sign = -sign if negate else sign
        else:
            matrix[out, mask] = sign
    return {(X, D, o, i): c * s for (X, D, _, _), c in scalar.items()
            for (o, i), s in matrix.items()}


@cache
def normal_form(op, n):
    """The normal form of an operator over n variables: a REGISTRY name
    or an expression ((c0, c1, name), ...), read off term_table(op, n).
    The dict is shared by every caller: do not change it."""
    out = {}
    for c, word in term_table(op, n):
        for key, v in _word_form(word, n).items():
            cur = out.get(key)
            out[key] = c * v if cur is None else cur + c * v
    return {key: c for key, c in out.items() if c}
