"""Regular multiplier Hopf algebras.

The comultiplication is never materialized as a multiplier on the tensor
square; an instance carries exactly the four computable slice maps

    delta_r(a, b)  = Delta(a)(1 (x) b)         a_(1) (x) a_(2)b
    delta_l(a, b)  = (a (x) 1)Delta(b)         a b_(1) (x) b_(2)
    delta_r2(a, b) = Delta(a)(b (x) 1)         a_(1)b (x) a_(2)
    delta_l2(a, b) = (1 (x) a)Delta(b)         b_(1) (x) a b_(2)

together with the counit and a bijective antipode, S and S^-1 read from
tables per basis symbol.  Sweedler-style expressions elsewhere are realized
as compositions of these slices against the element a leg multiplies, or a
local unit; the composition used is documented next to each formula.

Unital instances may additionally materialize the coproduct, in which case
the slices are derived from it.
"""

import weakref

from .linear import (Element, Ten, Memo, Memo2, linear, bilinear, tensor,
                     legs, make_sym, flip, apply_legs)
from .report import Report, equal


def below(rng, n):
    """A uniform draw from range(n), read from rng.getrandbits: the same
    draw, and so the same stream, as Random.randrange(n), which draws it
    this way.  Every seeded draw of the library goes through below, without
    the frames that wrap getrandbits in Random: randint(a, b) is
    a + below(rng, b - a + 1), and choice(seq) is seq[below(rng, len(seq))].
    Raises ValueError when n < 1 (getrandbits(0) is 0, so the loop would
    never end at n = 0)."""
    if n < 1:
        raise ValueError("below(rng, n) needs n >= 1, not %r" % (n,))
    k = n.bit_length()
    r = rng.getrandbits(k)
    while r >= n:
        r = rng.getrandbits(k)
    return r


class Space:
    """The carrier of an algebra, a module or a group: a finite basis, or a
    sampler of basis symbols for an infinite one.

    basis is a list for a finite carrier and None for an infinite one.
    sample(rng) draws one basis symbol: with the given sampler when there
    is one, else uniformly from the basis through below, the draw of
    Random.choice (an empty basis raises ValueError).  space.tensor(other)
    is the carrier of a tensor product: flat Ten symbols, listed when both
    factors are finite, and drawn by sampling each factor in turn.  A Space
    refers to nothing but its basis and sampler, so an object holding one
    is freed by reference counting alone.
    """

    __slots__ = ("basis", "_sample")

    def __init__(self, basis=None, sample=None):
        if basis is None and sample is None:
            raise ValueError("an infinite carrier needs a basis sampler")
        self.basis = list(basis) if basis is not None else None
        self._sample = sample

    def sample(self, rng):
        if self._sample is None:
            return self.basis[below(rng, len(self.basis))]
        return self._sample(rng)

    def tensor(self, other):
        basis = None
        if self.basis is not None and other.basis is not None:
            basis = [Ten(legs(v) + legs(w))
                     for v in self.basis for w in other.basis]
        return Space(basis, lambda rng: Ten(legs(self.sample(rng))
                                            + legs(other.sample(rng))))


class Algebra:
    """A non-degenerate algebra on a carrier Space.

    mult_basis(sa, sb) gives the product of two basis vectors; space lists
    the basis of a finite instance or samples that of an infinite one, and
    alg.basis reads its basis (None when infinite).  The product of basis
    symbols is memoized in the table self.mult_basis, read by symbol as
    alg.mult_basis[sa, sb]; alg.mult is the bilinear extension of the same
    table to Elements, called as alg.mult(x, y).
    """

    def __init__(self, field, mult_basis, space, *, unit=None,
                 local_unit=None, name="algebra"):
        self.field = field
        self.name = name
        self.space = space
        self.basis = space.basis
        self.mult_basis = Memo2(mult_basis)
        self.mult = bilinear(field, self.mult_basis)
        self.unit = unit
        self.has_unit = unit is not None
        self._local_unit = local_unit

    def mult_tensor(self, x, y):
        """Legwise multiplication on a tensor power (arities must match)."""
        mult = self.mult_basis

        def legwise(lx, ly):
            if len(lx) != len(ly):
                raise ValueError("tensor arity mismatch: %d vs %d" % (len(lx), len(ly)))
            acc = mult[lx[0], ly[0]]
            for a, b in zip(lx[1:], ly[1:]):
                acc = tensor(acc, mult[a, b])
            return acc
        return x.map_legs(lambda *lx: y.map_legs(lambda *ly: legwise(lx, ly)))

    def el(self, sym, coeff=None):
        return Element.basis(self.field, sym, coeff)

    def local_unit(self, elems):
        """A two-sided local unit: e with e*x = x*e = x for the given elems."""
        if self._local_unit is not None:
            return self._local_unit(elems)
        if self.has_unit:
            return self.unit
        raise ValueError("no local unit rule for %s" % self.name)


class Multiplier:
    """A pair of compatible multiplication maps housing M(A) elements.

    left(x) is f*x and right(x) is x*f; either may be None for the one-sided
    spaces L(A) / R(A).
    """

    def __init__(self, left=None, right=None, label="multiplier"):
        self._left = left
        self._right = right
        self.label = label

    def left(self, x):
        if self._left is None:
            raise ValueError("%s has no left action (one-sided multiplier)" % self.label)
        return self._left(x)

    def right(self, x):
        if self._right is None:
            raise ValueError("%s has no right action (one-sided multiplier)" % self.label)
        return self._right(x)

    def compatible_on(self, algebra, xs, ys):
        """Check (x*f)*y == x*(f*y) on the given probe elements."""
        for x in xs:
            for y in ys:
                if algebra.mult(self.right(x), y) != algebra.mult(x, self.left(y)):
                    return False
        return True

    @classmethod
    def from_element(cls, algebra, f):
        return cls(left=lambda x: algebra.mult(f, x),
                   right=lambda x: algebra.mult(x, f),
                   label=repr(f))


def _memoized_pairs(formula):
    """Evaluate formula(self, s) once per basis symbol s = a (x) b of
    A (x) A, in a memo kept in the instance's _twist_memo under the
    formula's name, and extend it linearly to the operator op(self, x2).
    The memo's formula reaches the instance through a weak reference, so
    the memo closes no reference cycle through its owner."""
    name = formula.__name__

    def op(self, x2):
        ext = self._twist_memo.get(name)
        if ext is None:
            owner = weakref.ref(self)
            ext = self._twist_memo[name] = linear(
                self.field, lambda s: formula(owner(), s))
        return ext(x2)

    op.__name__, op.__qualname__ = name, formula.__qualname__
    return op


class MultiplierHopfAlgebra:
    cyclic_order = None  # n on the group algebra of Z/n (instances.group_algebra)
    pair_specs = ()      # the --pair specs an instance offers (build_instance)

    def __init__(self, algebra, *, delta_r, delta_l, delta_r2, delta_l2,
                 counit, antipode, antipode_inv, delta_cover=None,
                 coproduct=None, eps_one=None, commutative=False,
                 cocommutative=False, name="mha"):
        self.algebra = algebra
        self.field = algebra.field
        self.el = algebra.el
        self.name = name
        # an element with counit 1, used as a seed for local units of
        # counit-twisted module actions on non-unital instances
        self.eps_one = eps_one if eps_one is not None else algebra.unit
        self.commutative = commutative
        self.cocommutative = cocommutative
        f = algebra.field
        # each slice of basis symbols is memoized in a table read by symbol
        # (mha.delta_r_basis[a, b]) and extended to Elements (mha.delta_r)
        self.delta_r_basis = Memo2(delta_r)
        self.delta_l_basis = Memo2(delta_l)
        self.delta_r2_basis = Memo2(delta_r2)
        self.delta_l2_basis = Memo2(delta_l2)
        self.delta_r = bilinear(f, self.delta_r_basis)
        self.delta_l = bilinear(f, self.delta_l_basis)
        self.delta_r2 = bilinear(f, self.delta_r2_basis)
        self.delta_l2 = bilinear(f, self.delta_l2_basis)
        self._counit = counit          # basis sym -> scalar
        self._antipode = antipode      # basis sym -> Element
        self._antipode_inv = antipode_inv
        self._delta_cover = delta_cover
        self._coproduct = coproduct    # basis sym -> arity-2 Element, unital only
        self._cold_tables()

    def _cold_tables(self):
        # the tables filled from the instance's own basis maps on first
        # read, through a weak reference, so they close no reference cycle:
        # the twist memos, and S and S^-1 per basis symbol
        owner = weakref.ref(self)
        self._twist_memo = {}          # twist or inverse-T name -> its memo
        self.antipode_basis = Memo(lambda s: owner()._antipode(s))
        self.antipode_inv_basis = Memo(lambda s: owner()._antipode_inv(s))

    def __setstate__(self, state):
        # a copy starts its tables cold: it may get its structure maps
        # replaced, and the original's images would then mask the change
        self.__dict__.update(state)
        self._cold_tables()

    # -- basic linear maps -------------------------------------------------

    def counit(self, x):
        return self.field.reduce(
            sum(c * self._counit(s) for s, c in x.terms.items()))

    def antipode(self, x):
        """S(x), read from the table mha.antipode_basis[s] of S on basis
        symbols, each filled from the basis map _antipode on first read."""
        return x.map_terms(self.antipode_basis.__getitem__)

    def antipode_inv(self, x):
        """S^-1(x), read from antipode_inv_basis as antipode reads S."""
        return x.map_terms(self.antipode_inv_basis.__getitem__)

    @property
    def materializes_coproduct(self):
        """Whether coproduct(x) is available (unital instances only)."""
        return self._coproduct is not None

    def coproduct(self, x):
        """Materialized Delta(x); only available on unital instances."""
        if self._coproduct is None:
            raise ValueError("%s does not materialize its coproduct" % self.name)
        return x.map_terms(self._coproduct)

    def sweedler(self, x, n):
        """Iterated materialized coproduct: list-of-legs form of Delta^(n-1)."""
        out = x
        for i in range(n - 1):
            out = apply_legs(out, i, 1, self.coproduct)
        return out

    def delta_cover(self, xs, ys):
        """An element c with Delta(c)(x (x) y) = x (x) y for the given spans.

        Used to evaluate Delta(m)(x (x) y) for multipliers m: replace m by
        the algebra element mc.
        """
        if self._delta_cover is not None:
            return self._delta_cover(xs, ys)
        if self.algebra.has_unit:
            return self.algebra.unit
        raise ValueError("no coproduct cover rule for %s" % self.name)

    # -- the canonical bijections T1..T4 on A (x) A ------------------------

    def _pairwise(self, x2, table):
        """Sum table[a, b] over the terms a (x) b of x2: a basis-pair table,
        such as the memo of a slice, read by symbol."""
        return x2.map_legs(lambda a, b: table[a, b])

    def t1(self, x2):
        return self._pairwise(x2, self.delta_r_basis)

    def t2(self, x2):
        return self._pairwise(x2, self.delta_l_basis)

    def t3(self, x2):
        return self._pairwise(x2, self.delta_r2_basis)

    def t4(self, x2):
        return self._pairwise(x2, self.delta_l2_basis)

    # each inverse is a formula per basis pair, evaluated once per instance
    # (a copy.copy, whose antipode may be replaced, starts with an empty
    # memo)

    @_memoized_pairs
    def inv_t1(self, s):
        # a_(1) (x) S(a_(2))b  ==  (i (x) S)((1 (x) S^-1(b))Delta(a))
        a, b = legs(s)
        w = self.delta_l2(self.antipode_inv_basis[b], self.el(a))
        return apply_legs(w, 1, 1, self.antipode)

    @_memoized_pairs
    def inv_t2(self, s):
        # aS(b_(1)) (x) b_(2)  ==  (S (x) i)(Delta(b)(S^-1(a) (x) 1))
        a, b = legs(s)
        w = self.delta_r2(self.el(b), self.antipode_inv_basis[a])
        return apply_legs(w, 0, 1, self.antipode)

    @_memoized_pairs
    def inv_t3(self, s):
        # y_(2) (x) S^-1(y_(1))x  ==  tau (S^-1 (x) i)((S(x) (x) 1)Delta(y));
        # recovery reduces through S^-1(y_(2))y_(1) = eps(y)1, which holds
        # even when S^2 != id
        x, y = legs(s)
        w = self.delta_l(self.antipode_basis[x], self.el(y))
        return flip(apply_legs(w, 0, 1, self.antipode_inv))

    @_memoized_pairs
    def inv_t4(self, s):
        # yS^-1(x_(2)) (x) x_(1)  ==  tau (i (x) S^-1)(Delta(x)(1 (x) S(y)))
        x, y = legs(s)
        w = self.delta_r(self.el(x), self.antipode_basis[y])
        return flip(apply_legs(w, 1, 1, self.antipode_inv))

    def tmap(self, k):
        return [self.t1, self.t2, self.t3, self.t4][k - 1]

    def inv_t(self, k):
        return [self.inv_t1, self.inv_t2, self.inv_t3, self.inv_t4][k - 1]

    # -- the twist operators -----------------------------------------------
    #
    # Each twist is evaluated once per basis pair of A (x) A through its
    # factorization into slice maps, and extended linearly.  The basis-pair
    # images are memoized per instance, which assumes the structure maps
    # are pure (as bilinear does); replacing a structure map on an instance
    # that has already evaluated a twist is unsupported, but a copy.copy
    # starts with an empty memo and sees its own structure maps.

    def _s_leg(self, x2, i):
        return apply_legs(x2, i, 1, self.antipode)

    def _sinv_leg(self, x2, i):
        return apply_legs(x2, i, 1, self.antipode_inv)

    @_memoized_pairs
    def script_t(self, s):
        # b_(2) (x) aS(b_(1))b_(3), via the factorization
        # T4 (S (x) i) T3 (i (x) S^-1) tau
        x2 = self.el(s)
        return self.t4(self._s_leg(self.t3(self._sinv_leg(flip(x2), 1)), 0))

    @_memoized_pairs
    def script_t_inv(self, s):
        # inverse of the factorization; equals bS^-1(a_(3))a_(1) (x) a_(2)
        x2 = self.el(s)
        return flip(self._s_leg(self.inv_t3(self._sinv_leg(self.inv_t4(x2), 0)), 1))

    @_memoized_pairs
    def script_t_prime(self, s):
        # b_(1) (x) S(b_(2))ab_(3), via (i (x) S) T4 tau (i (x) S^-1) T4
        x2 = self.el(s)
        return self._s_leg(self.t4(flip(self._sinv_leg(self.t4(x2), 1))), 1)

    @_memoized_pairs
    def script_t_prime_inv(self, s):
        # a_(3)bS^-1(a_(2)) (x) a_(1), by inverting the factorization
        x2 = self.el(s)
        return self.inv_t4(self._s_leg(flip(self.inv_t4(self._sinv_leg(x2, 1))), 1))

    def counit_leg(self, x, i):
        """(... (x) eps (x) ...): collapse leg i through the counit."""
        return x.map_legs(lambda *ls: Element.basis(
            self.field, make_sym(ls[:i] + ls[i + 1:]), self._counit(ls[i])))

    def mult_legs(self, x2):
        """m: A (x) A -> A on arity-2 elements."""
        return self._pairwise(x2, self.algebra.mult_basis)


# -- seeded sampling -------------------------------------------------------

def random_element(rng, carrier, max_support=4):
    """A random Element of an Algebra or a UnitalModule: up to max_support
    terms, on basis symbols drawn from carrier.space, with coefficients
    drawn from the field's coeff_pool: Random.randint(1, max_support), then
    per term Random.choice(pool) before the symbol, the stream of
    terms[sample(rng)] = pool[below(rng, n)] (Python evaluates its right
    side first).  The loop reads rng.getrandbits itself, as below does."""
    pool, space = carrier.field.coeff_pool, carrier.space
    basis = space.basis if space._sample is None and space.basis else None
    n, nb = len(pool), len(basis or ())
    k, kb, bits, terms = n.bit_length(), nb.bit_length(), rng.getrandbits, {}
    for _ in range(1 + below(rng, max_support)):
        r = bits(k)
        while r >= n:
            r = bits(k)
        if basis is None:  # a sampler, or an empty basis Space.sample refuses
            terms[space.sample(rng)] = pool[r]
            continue
        b = bits(kb)
        while b >= nb:
            b = bits(kb)
        terms[basis[b]] = pool[r]
    return Element(carrier.field, terms)


def probe_elements(rng, carrier, k):
    """Every basis vector of a finite carrier, else k random Elements."""
    if carrier.basis is not None:
        return [carrier.el(s) for s in carrier.basis]
    return [random_element(rng, carrier) for _ in range(k)]


def draws(rng, n, *carriers):
    """n tuples of a law's variables, one variable per carrier in the order
    given, each tuple drawn from rng only when it is read.  A carrier is an
    Algebra or a module (random_element, at most 4 terms), a (carrier, cap)
    pair (random_element, at most cap terms), or a (carrier, None) pair (one
    basis vector, carrier.el(carrier.space.sample(rng)))."""
    specs = [c if type(c) is tuple else (c, 4) for c in carriers]
    for _ in range(n):
        yield tuple([random_element(rng, c, cap) if cap is not None
                     else c.el(c.space.sample(rng)) for c, cap in specs])


# -- axiom checkers --------------------------------------------------------

def check_mha_axioms(mha, samples=100, seed=0):
    """Run every law of a regular multiplier Hopf algebra on `samples`
    seeded tuples (local-unit on 8), on finite and infinite carriers alike;
    no law enumerates basis tuples, and nondegenerate alone reads every
    basis vector of a finite carrier as its probe set (12 random elements
    of an infinite one).  Van Daele's definition, clause by clause: A is
    associative (assoc) and non-degenerate (nondegenerate, with local-unit
    for the local units the slices rely on); Delta is a homomorphism into
    M(A (x) A) (delta-mult) and coassociative (coassoc); T1, T2 and, for
    regularity, T3, T4 are bijective (t1- to t4-bijective).  The counit and
    the antipode are then theorems: counit, antipode, antipode-bijective,
    antipode-antihom, and twist-t2-t4 for the twist built from them."""
    rep = Report("mha-axioms", mha, seed, samples)
    alg = mha.algebra

    # associativity and non-degeneracy of the product
    rep.law("assoc", "(ab)c = a(bc)",
            equal(lambda a, b, c: alg.mult(alg.mult(a, b), c),
                  lambda a, b, c: alg.mult(a, alg.mult(b, c))),
            rep.draws(alg, alg, alg))

    probe = probe_elements(rep.rng, alg, 12)

    def check(a):
        if a.is_zero():
            return None
        if all(alg.mult(a, b).is_zero() for b in probe + [a]):
            return "a=%r has ab=0 for all probes" % a
        if all(alg.mult(b, a).is_zero() for b in probe + [a]):
            return "a=%r has ba=0 for all probes" % a
    rep.law("nondegenerate", "product non-degenerate on probe set", check,
            zip(probe))

    # local units
    def check(*xs):
        e = alg.local_unit(xs)
        for x in xs:
            if alg.mult(e, x) != x or alg.mult(x, e) != x:
                return "e=%r x=%r" % (e, x)
    rep.law("local-unit", "e x = x e = x for local units", check,
            rep.draws(alg, alg, alg, n=8))

    # sliced coassociativity:
    # (a (x) 1 (x) 1)(Delta (x) i)(Delta(b)(1 (x) c))
    #   = (i (x) Delta)((a (x) 1)Delta(b))(1 (x) 1 (x) c)
    rep.law("coassoc", "sliced coassociativity", equal(
        lambda a, b, c: apply_legs(mha.delta_r(b, c), 0, 1,
                                   lambda p: mha.delta_l(a, p)),
        lambda a, b, c: apply_legs(mha.delta_l(a, b), 1, 1,
                                   lambda t: mha.delta_r(t, c))),
        rep.draws(alg, alg, alg))

    # counit laws on slices
    rep.law("counit", "(i(x)eps)Delta(a)(1(x)b) = a eps(b), and mirrored", equal(
        lambda a, b: mha.counit_leg(mha.delta_r(a, b), 1),
        lambda a, b: a.scaled(mha.counit(b)),
        lambda a, b: mha.counit_leg(mha.delta_l(a, b), 0),
        lambda a, b: b.scaled(mha.counit(a))), rep.draws(alg, alg))

    # antipode laws: m(S (x) i)(Delta(a)(1 (x) b)) = eps(a) b
    #                m(i (x) S)((b (x) 1)Delta(a)) = eps(a) b
    rep.law("antipode", "m(S(x)i)T1 = eps(.)id and m(i(x)S)T2 = eps(.)id", equal(
        lambda a, b: mha.mult_legs(apply_legs(mha.delta_r(a, b), 0, 1,
                                              mha.antipode)),
        lambda a, b: b.scaled(mha.counit(a)),
        lambda a, b: mha.mult_legs(apply_legs(mha.delta_l(b, a), 1, 1,
                                              mha.antipode)),
        lambda a, b: b.scaled(mha.counit(a))), rep.draws(alg, alg))

    # bijectivity of S (regularity witness)
    rep.law("antipode-bijective", "S o S^-1 = S^-1 o S = id", equal(
        lambda a: mha.antipode(mha.antipode_inv(a)), lambda a: a,
        lambda a: mha.antipode_inv(mha.antipode(a)), lambda a: a),
        rep.draws(alg))

    # T_k round trips, and the twist factors through T2: scriptT o T2 = T4;
    # each law's variable is x = a (x) b
    for k in (1, 2, 3, 4):
        t, inv = mha.tmap(k), mha.inv_t(k)
        rep.law("t%d-bijective" % k, "T%d and its inverse round-trip" % k,
                equal(lambda x: inv(t(x)), lambda x: x,
                      lambda x: t(inv(x)), lambda x: x),
                ((tensor(a, b),) for a, b in rep.draws(alg, alg)))

    rep.law("twist-t2-t4", "scriptT o T2 = T4",
            equal(lambda x: mha.script_t(mha.t2(x)), mha.t4),
            ((tensor(a, b),) for a, b in rep.draws(alg, alg)))

    # standard consequences, kept as smoke tests
    rep.law("antipode-antihom", "eps(S(a)) = eps(a); S(ab) = S(b)S(a)", equal(
        lambda a, b: mha.counit(mha.antipode(a)), lambda a, b: mha.counit(a),
        lambda a, b: mha.antipode(alg.mult(a, b)),
        lambda a, b: alg.mult(mha.antipode(b), mha.antipode(a))),
        rep.draws(alg, alg))

    # Delta is multiplicative, on slices: with p (x) r the terms of
    # Delta(b)(1 (x) c), Delta(ab)(1 (x) c) = sum [Delta(a)(1 (x) r)](p (x) 1);
    # mirrored, with p (x) r the terms of (c (x) 1)Delta(a),
    # (c (x) 1)Delta(ab) = sum (p (x) 1)[(1 (x) r)Delta(b)]
    def right(a, b, c, ab):
        return mha.delta_r(b, c).map_legs(lambda p, r: apply_legs(
            mha.delta_r(a, alg.el(r)), 0, 1, lambda x: alg.mult(x, alg.el(p))))

    def left(a, b, c, ab):
        return mha.delta_l(c, a).map_legs(lambda p, r: apply_legs(
            mha.delta_l2(alg.el(r), b), 0, 1, lambda x: alg.mult(alg.el(p), x)))
    rep.law("delta-mult", "Delta(ab)(1(x)c) = Delta(a)(Delta(b)(1(x)c)), "
            "and mirrored",
            equal(lambda a, b, c, ab: mha.delta_r(ab, c), right,
                  lambda a, b, c, ab: mha.delta_l(c, ab), left),
            ((a, b, c, alg.mult(a, b)) for a, b, c in rep.draws(alg, alg, alg)))

    return rep


def check_braid(mha, samples=100, seed=0):
    """Both twist operators satisfy the braid relation on A (x) A (x) A;
    commutative / cocommutative instances collapse the right twist / twist
    to the flip map.

    The braid sides apply a twist to every basis window of every term, so
    each twist is evaluated once per basis pair and its images are memoized
    per instance (see the twist operators on MultiplierHopfAlgebra); this
    assumes the structure maps are pure, as bilinear does."""
    rep = Report("braid", mha, seed, samples)
    alg = mha.algebra

    # each law's variable is x = a (x) b (x) c, or a (x) b for a twist
    for lawid, op in (("braid-twist", mha.script_t),
                      ("braid-twist-prime", mha.script_t_prime)):
        rep.law(lawid, "(O(x)i)(i(x)O)(O(x)i) = (i(x)O)(O(x)i)(i(x)O)", equal(
            lambda x: apply_legs(apply_legs(apply_legs(x, 0, 2, op),
                                            1, 2, op), 0, 2, op),
            lambda x: apply_legs(apply_legs(apply_legs(x, 1, 2, op),
                                            0, 2, op), 1, 2, op)),
            ((tensor(tensor(a, b), c),) for a, b, c in rep.draws(alg, alg, alg)))

    def pairs():
        return ((tensor(a, b),) for a, b in rep.draws(alg, alg))

    # round trips of the twists
    rep.law("twist-invertible", "both twist operators round-trip with their inverses",
            equal(lambda x: mha.script_t_inv(mha.script_t(x)), lambda x: x,
                  lambda x: mha.script_t_prime_inv(mha.script_t_prime(x)),
                  lambda x: x), pairs())

    if mha.cocommutative:
        rep.law("cocommutative-flip", "cocommutative: scriptT = tau",
                equal(lambda x: mha.script_t(x), flip), pairs())

    if mha.commutative:
        rep.law("commutative-flip", "commutative: scriptT' = tau",
                equal(lambda x: mha.script_t_prime(x), flip), pairs())

    return rep
