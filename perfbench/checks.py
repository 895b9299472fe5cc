"""Output checks, written apart from the program: they read what `ydcheck`
wrote and test properties every correct output has.  None of them compares
against a stored copy of earlier output.

Each function returns None when the output passes, or a one-line reason.
"""

import json
from fractions import Fraction


def check_report(raw, exit_code, cell, seed):
    """A `check` call must exit 0 and write a report that says ok, holds at
    least one law, every law ok, for the suite, instance and seed asked."""
    if exit_code != 0:
        return "exit code %r" % (exit_code,)
    try:
        rep = json.loads(raw)
    except ValueError as exc:
        return "report is not JSON: %s" % exc
    if rep.get("ok") is not True:
        return "report ok is %r" % (rep.get("ok"),)
    laws = rep.get("laws") or []
    if not laws:
        return "report has no laws"
    bad = [law.get("law") for law in laws if law.get("ok") is not True]
    if bad:
        return "laws not ok: %s" % ", ".join(map(str, bad[:3]))
    if rep.get("suite") != cell[1] or rep.get("seed") != seed:
        return "report is for suite %r, seed %r" % (rep.get("suite"),
                                                    rep.get("seed"))
    instance = cell[cell.index("--instance") + 1]
    # a dcp report names the structure it checked, the double D(instance)
    expected = "D(%s)" % instance if cell[1] == "dcp" else instance
    if rep.get("instance") != expected:
        return "report is for instance %r, expected %r" % (
            rep.get("instance"), expected)
    return None


def parse_table(raw):
    """The multiplication table of a dumped crossed product, as
    {(i, j): {k: Fraction}}, and the basis size."""
    payload = json.loads(raw)
    n = len(payload["basis"])
    if len(set(payload["basis"])) != n:
        raise ValueError("basis labels repeat")
    table = {}
    for i, j, entries in payload["table"]:
        prod = {}
        for k, c in entries:
            if not (0 <= i < n and 0 <= j < n and 0 <= k < n):
                raise ValueError("index out of range in entry %r" % ([i, j],))
            prod[k] = prod.get(k, Fraction(0)) + Fraction(c)
        table[(i, j)] = {k: c for k, c in prod.items() if c}
    return table, n


def check_dimension(n, base_dim):
    """A diagonal crossed product over a base of dimension d has dimension
    d * d (dual basis times base basis)."""
    if n != base_dim * base_dim:
        return "dimension %d, expected %d^2 = %d" % (n, base_dim,
                                                     base_dim * base_dim)
    return None


def _times(table, x, j):
    """x * e_j for x a {index: Fraction} vector."""
    out = {}
    for i, c in x.items():
        for k, d in table.get((i, j), {}).items():
            out[k] = out.get(k, Fraction(0)) + c * d
    return {k: c for k, c in out.items() if c}


def check_associative(table, n):
    """(e_i e_j) e_k = e_i (e_j e_k) on every basis triple, in exact
    rational arithmetic."""
    for i in range(n):
        for j in range(n):
            ij = table.get((i, j), {})
            for k in range(n):
                left = _times(table, ij, k)
                right = {}
                for m, c in table.get((j, k), {}).items():
                    for p, d in table.get((i, m), {}).items():
                        right[p] = right.get(p, Fraction(0)) + c * d
                right = {p: c for p, c in right.items() if c}
                if left != right:
                    return ("(e%d e%d) e%d = %r but e%d (e%d e%d) = %r"
                            % (i, j, k, left, i, j, k, right))
    return None


def _solve(rows, n):
    """Whether the augmented rows [a_0 .. a_{n-1}, b] (Fractions) have a
    common solution, by Gaussian elimination."""
    rows = [list(r) for r in rows]
    rank = 0
    for col in range(n):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col]),
                     None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        top = rows[rank]
        for r in range(len(rows)):
            if r != rank and rows[r][col]:
                f = rows[r][col] / top[col]
                rows[r] = [a - f * b for a, b in zip(rows[r], top)]
        rank += 1
    return all(r[n] == 0 for r in rows[rank:])


def check_unit(table, n):
    """The algebra has a two-sided unit u: u e_j = e_j = e_j u for every j.
    A crossed product of finite-dimensional Hopf algebras is unital, and a
    table with products dropped (an empty or zeroed one included) has no
    unit, though it may still be associative."""
    rows = []
    for j in range(n):
        for k in range(n):
            target = Fraction(int(j == k))
            rows.append([table.get((i, j), {}).get(k, Fraction(0))
                         for i in range(n)] + [target])
            rows.append([table.get((j, i), {}).get(k, Fraction(0))
                         for i in range(n)] + [target])
    if not _solve(rows, n):
        return "no two-sided unit"
    return None


def check_deterministic(outputs):
    """Every repeat of one cell wrote the same bytes."""
    first = outputs[0]
    for r, raw in enumerate(outputs[1:], 2):
        if raw != first:
            return "repeat %d wrote different bytes than repeat 1" % r
    return None


def check_control(report, law):
    """A corrupted fixture is caught when its designated law fails with a
    witness.  `report` is a ydcheck Report (anything with .laws holding
    .law, .ok and .witness)."""
    if any(r.law == law and not r.ok and r.witness for r in report.laws):
        return None
    return "corruption not caught by law %r" % law
