"""Certified lattice sums and empirical checks of the implemented inequalities.

Every sum over a lattice is an interval: certified_sum's sum of positive
terms, a ``CertifiedSum``, lies in [partial - rounding, partial +
remainder_bound + rounding], and a dual sum, whose terms are signed, is an
``Interval``.  One kernel, ``_sums``, truncates and sums every ball: it
picks the truncation radius and its tail bound, and runs one pass of
``_ball_sums``, which streams the terms from the enumeration's blocks,
holding no points, into one exactly rounded math.fsum per column.  Its
callers are term maps: certified_sum's one column and ``_dual_sums``'s
three; the charges for the terms' rounding are more columns of the same
pass, one entry per block.  On a split lattice, exactly the sum of its
axis lattices d_j Z (Z^n, a sheared Z^n, a diagonal lattice),
certified_sum multiplies the kernel's certified 1-D sums instead: every
family is a product over coordinates.  certified_sum keeps each unshifted
sum (v = 0) while its lattice lives, so the right side of every tail check
and of part 1 on one lattice, spec and tol is summed once; a tail check
adds the shifted sum when v != 0 and one pass over its body alone, the
mass inside it, charged for its own term rounding on every route.  The
remainder rests on an exponential envelope: the centred
cells, tiling space, of the points past the truncation radius tile a
region where the envelope integrates to an upper incomplete gamma
function, bounded by integration by parts with a derived rounding
allowance.  The cell is the parallelepiped or the Gram-Schmidt box of an
LLL-reduced basis, whichever bound on its reach is smaller.  For every
l^q envelope (q <= 2), Jensen's inequality over the cell sets each term
against the envelope's mean on its cell, so the radius pays the reach once
and the cell's moment enters as a constant factor.
The float terms are charged for their own rounding: each term's exponent
is bounded within a derived slip of the exact one at the exact lattice
point (``_exponent_slip``), and the kernel sums those slips, weighted by
the terms, into a rounding bound that widens both ends of the interval.
Inequality checks build their intervals with one rule, ``Interval``, whose
+, - and * round each end one ulp outward, compare them pessimistically
and return PASS / FAIL / INCONCLUSIVE; an interval straddling the boundary
is never coerced.

Sums of fhat over the dual lattice (part 3) are taken on the primal side by
Poisson summation, as covol(L) times a cos-weighted sum of f over L; their
terms are signed, so each is the Interval covol (partial + [-h, h]),
rounded outward, h the tail bound plus the rounding of its column.
``_dual_sums``, a term map of the kernel at v = 0, takes the shifted and
the unshifted sum from one ball.  The psf check sets the two ends of
Poisson summation against each other, certified_sum over L and
``_dual_sums`` on the cached L* with f dilated by 1/t, so it also
tests part 3's sums, and no check builds a dilated lattice.  Where fhat
has no exponential envelope, psf sums a diagonal dual as 1-D series:
exp_l1's in closed form, fractional p's from fhat_p at the exact points
(fourier_1d), with a tail past r = R_TAIL.  Both sides are Intervals, and
so is their relative difference, rounded outward (``_psf_residual``):
psf's verdict comes from ``_verdict`` on it, like every other check's.

Every check builds its report record here, through ``_record``: one
function per check of a manifest (``check_theta``, ``check_part1``,
``check_tail_inequality``, ``check_part3``, ``check_psf``,
``check_handshake``, ``check_hypothesis_sampling`` and
``transference_check(...).record()``), and ``tail_masses`` reads the
``--plot-csv`` sweep off a tail check's record.
"""

from __future__ import annotations

import functools
import itertools
import math
import sys
import weakref
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .bounds import (NuBound, cosh_nu_bound, cstar, handshake_bound,
                     supergaussian_mu_closed_form, transference_bound_l1,
                     transference_bound_l2)
from .enumeration import (_BOUNDARY_SLACK, _U, DEFAULT_GRID_BUDGET,
                          DEFAULT_NODE_BUDGET, BodySpec, _cell_bounds,
                          ball_blocks, covering_radius_estimate,
                          enumerate_arrays, shortest_vector, transport_bracket)
from .errors import (BudgetExceededError, IllConditionedBasisError,
                     InvariantError, ToleranceUnreachedError)
from .functions import (TestFunctionSpec, check_hypotheses, envelope,
                        fhat_route, log_f)
from .lattice import (COND_THRESHOLD, Lattice, distortion_bound, dual,
                      lll_reduce, lp_norm, rational, rational_matmul)
from .transform import (R_TAIL, _refuse_pre_asymptotic, fourier_1d,
                        transform_tail_coefficient)

PASS = "PASS"
FAIL = "FAIL"
INCONCLUSIVE = "INCONCLUSIVE"

_SAFETY = 1e-10  # relative headroom folded into analytic remainders


def _down(x):
    """The float below x: at most x exact, for x one correctly rounded
    operation away from it."""
    return math.nextafter(x, -math.inf)


def _up(x):
    """The float above x: at least x exact, as for ``_down``."""
    return math.nextafter(x, math.inf)


def _ends(x):
    return (x.lo, x.hi) if isinstance(x, Interval) else (float(x), float(x))


class Interval(NamedTuple):
    """The closed interval [lo, hi], the one rounding rule of every check.

    +, - and * with another Interval or with a number taken as exact (on
    either side of + and *) round each end one ulp outward (``_down``,
    ``_up``): after one correctly rounded IEEE operation, underflow and
    overflow included, the exact end lies within one ulp of the computed
    one.  As a NamedTuple it unpacks as (lo, hi) and equals that tuple, but
    its + and * are overridden, and numpy scalars defer to them: they are
    interval arithmetic, not tuple concatenation or repetition.
    """

    lo: float
    hi: float
    __array_ufunc__ = None

    def __add__(self, other):
        lo, hi = _ends(other)
        return Interval(_down(self.lo + lo), _up(self.hi + hi))

    def __sub__(self, other):
        lo, hi = _ends(other)
        return Interval(_down(self.lo - hi), _up(self.hi - lo))

    def __mul__(self, other):
        lo, hi = _ends(other)
        ends = (self.lo * lo, self.lo * hi, self.hi * lo, self.hi * hi)
        return Interval(_down(min(ends)), _up(max(ends)))

    __radd__, __rmul__ = __add__, __mul__


@dataclass(frozen=True)
class CertifiedSum:
    """certified_sum's truncated lattice sum of positive terms, with a
    certified bound on the omitted tail.

    partial is the exactly rounded sum of the float terms of the npoints
    points of the ball, and rounding a certified bound on its distance from
    the exact sum of the ball's terms; remainder_bound bounds the omitted
    tail.  So the true sum lies in [partial - rounding, partial +
    remainder_bound + rounding] (interval(), rounded outward).
    truncation_radius is measured on (lambda + v)/t in the family's norm.
    On a split lattice the sum is a product of 1-D ones: partial is the
    float product of their partials, npoints counts their terms and
    truncation_radius is the largest of theirs (``certified_sum``).
    """

    partial: float
    remainder_bound: float
    truncation_radius: float
    npoints: int
    rounding: float

    def interval(self):
        return self.partial + Interval(
            -self.rounding, _up(self.remainder_bound + self.rounding))


def _log_upper_gamma(a, x, logs=None, drop=None):
    """An upper bound on log Gamma(a, x), the unnormalized upper incomplete
    gamma function, for a > 0; +inf when x <= 0.

    Integrating by parts N = max(0, ceil(a - 1)) times (DLMF 8.8.2),

        Gamma(a, x) = sum_{k<N} c_k x^{a-1-k} e^{-x} + c_N Gamma(a - N, x),

    with c_k = (a-1)(a-2)...(a-k) > 0.  As 0 < a - N <= 1, t^{a-N-1} <=
    x^{a-N-1} for t >= x, so Gamma(a - N, x) <= x^{a-N-1} e^{-x} and

        log Gamma(a, x) <= (a-1) log x - x + log s,  s = sum_{k<=N} c_k / x^k,

    with equality for integer a.  Every term is positive, and the log form
    cannot underflow; s overflowing to +inf gives the trivial bound +inf.

    x may be +inf, an argument past the floats, when logs, the terms whose
    sum is log x, are given (default: log x itself).  drop, a float at most
    x - m for some m >= 0, stands in the formula for x, so that the result
    bounds m + log Gamma(a, x) (default m = 0).

    Rounding (Higham, ch. 3; u the unit roundoff, log within one ulp): a - k
    is exact (a and k are multiples of ulp(a)), so each of the N Horner
    steps for s rounds three times, and the computed s is s (1 + theta)
    with |theta| <= gamma_{3N}: log s is off by at most 3.1 N u, plus 2u
    log s for the log itself.  A float x rounded from the exact argument
    moves s by at most N u more.  log x, a sum of at most two logs (one
    perhaps times q), is off by at most 4u sum |logs|, so (a-1) log x by at
    most 5u |a-1| sum |logs|, and the two additions by u each on a
    magnitude of at most |a-1| sum |logs| + |drop| + log s.  So the
    computed value is within 7u (|drop| + |a-1| sum |logs| + log s + N) of
    the formula; the allowance added to it is 8u times that sum, which also
    pays for the allowance's own rounding and for the final addition.
    """
    if not x > 0:
        return math.inf
    if drop is None:
        drop = x
    if logs is None:
        logs = (math.log(x),)
    n_parts = max(0, math.ceil(a - 1))
    s = 1.0
    for k in range(n_parts, 0, -1):
        s = 1.0 + s * (a - k) / x
    log_s, log_x = math.log(s), sum(logs)
    logs_size = sum(abs(t) for t in logs)
    value = (a - 1) * log_x - drop + log_s
    return value + 8 * _U * (abs(drop) + abs(a - 1) * logs_size + log_s
                             + n_parts)


# _log_tail is a pure function of its floats and tuples, asked again and
# again for the same radii (every sum of one lattice, envelope and scale
# grows S through the same steps): a round of the acceptance manifest asks
# it 761 times for 234 distinct arguments.  typed, so a numpy float, whose
# overflow is silent, never shares an entry with a Python float.
@functools.lru_cache(maxsize=1024, typed=True)
def _log_tail(n, covol, env, beta_eff, cell, S):
    """log of the certified bound on sum_{y in v+L, ||y||_q >= S} e^{n loga - beta_eff ||y||_q^q}.

    cell = (reach, moment) of a centred cell P of volume covol that tiles
    space by translates of L (``enumeration._cell_bounds``), moment E
    bounding the mean of ||c||_q^q over c uniform on P.  Each point's term
    is set against the envelope's mean over its cell y + P by Jensen's
    inequality, e^{E g} <= E e^{g}:

    * q <= 1.  ||.||_q^q is subadditive, ||y + c||_q^q <= ||y||_q^q +
      ||c||_q^q, so e^{-beta ||y||_q^q - beta E} <= (1/covol) int_{y+P}
      e^{-beta ||z||_q^q} dz, with ||z||_q^q >= w0 = S^q - reach, the reach
      measured in the q-th power.
    * 1 < q <= 2.  g(x) = sgn(x) |x|^{q-1} is (q-1)-Hoelder with constant
      C = 2^{2-q}: for x, x' of one sign by the subadditivity of t^{q-1},
      and for opposite signs by the power mean, |x|^{q-1} + |x'|^{q-1} <=
      2^{2-q} (|x| + |x'|)^{q-1}.  Integrating q (g(a + s b) - g(a)) b over
      s in [0, 1] gives |a + b|^q <= |a|^q + q g(a) b + C |b|^q; summed over
      the coordinates, with E c = 0 (P is symmetric), E||y + c||_q^q <=
      ||y||_q^q + C E, and Jensen gives the factor e^{beta C E}, with
      ||z||_q >= ||y||_q - reach, w0 = (S - reach)^q.  At q = 2 this is the
      expansion of |y + c|^2, C = 1 exactly.

    So the reach is paid once: the cells of the summed points tile a region
    ||z||_q^q >= w0, where the envelope integrates in polar form to
    (n V_q / q) e^{n loga} beta^{-n/q} Gamma(n/q, beta w0), V_q the volume
    of the unit l^q ball; divided by covol and times the factor (C = 1 for
    q <= 1) this is e^{base + beta C E} Gamma(n/q, beta w0), and
    _log_upper_gamma bounds Gamma from above.  The factor is folded into its
    drop, beta (w0 - C E), and beta w0 enters it through logs (log beta,
    log w0), so neither leaves the floats unless the bound itself does.

    Rounding: w0 is a lower bound on the exact region's, and C E an upper
    one.  S^q and, for 1 < q < 2, r0^q, r0 = S - reach (a pow, within one
    ulp) are shrunk by 8u, which keeps them below the exact power after the
    product's rounding; S - reach, S^q - reach, r0^2, w0 - C E and
    beta (w0 - C E) are each one correctly rounded operation, taken to the
    float below (_down).  2 - q is exact (Sterbenz), 2^{2-q} a pow within
    one ulp and C E one product, each rounded up (_up).  Where r0^q leaves
    the floats, beta w0 is exp(log beta + q log r0): the exponent is off by
    at most 4u M, M = |log beta| + q |log r0|, and exp by one ulp, so it is
    shrunk by 8u (M + 1), and the drop is it less beta C E rounded up;
    where that too leaves the floats, beta w0 is near 2^1024 or beyond, so
    with beta C E below 2^1023 the bound is below every float, -inf (else
    the trivial +inf).  Gamma(a, .) decreases, so a smaller argument only
    raises the bound.  base's six terms are each within 4u of their sizes
    (lgamma and log within one ulp, up to two products or sums, log 2 + an
    lgamma of at least -0.13 cancelling by at most 1.4x), fsum adds u of
    their total size B, and an lgamma argument x = 1 + n/q or 1 + 1/q
    rounded by 2u moves lgamma by at most 2u x |psi(x)| <= 2u (x log x +
    1); so base plus 8u (B + (n + 1)(1 + x log x)) bounds the exact base.
    Returns +inf when S is too small for the tiling argument to apply.
    """
    q = env.q
    reach, moment = cell
    a = n / q
    log_beta = math.log(beta_eff)
    terms = (n * (env.loga + math.log(2.0) + math.lgamma(1 + 1 / q)),
             math.log(n), -math.lgamma(1 + a), -math.log(q),
             -math.log(covol), -a * log_beta)
    base = math.fsum(terms) + 8 * _U * (
        sum(map(abs, terms)) + (n + 1) * (1 + (1 + a) * math.log1p(a)))
    if q <= 1.0:
        w0, ce = _down(S ** q * (1 - 8 * _U) - reach), moment
    else:
        r0 = _down(S - reach)
        if not r0 > 0:
            return math.inf
        ce = moment if q == 2.0 else _up(_up(2.0 ** (2 - q)) * moment)
        try:
            w0 = _down(r0 * r0) if q == 2.0 else r0 ** q * (1 - 8 * _U)
        except OverflowError:  # r0^q leaves the floats; beta r0^q may not
            logs = (log_beta, q * math.log(r0))
            size = sum(map(abs, logs)) + 1
            try:
                x = _down(math.exp(sum(logs)) * (1 - 8 * _U * size))
            except OverflowError:  # so does beta r0^q: past 2^1024
                return -math.inf if beta_eff * ce < 2.0 ** 1023 else math.inf
            drop = _down(x - _up(beta_eff * ce))
            return base + _log_upper_gamma(a, x, drop=drop)
    if not w0 > 0:
        return math.inf
    drop = _down(beta_eff * _down(w0 - ce))
    return base + _log_upper_gamma(a, beta_eff * w0,
                                   (log_beta, math.log(w0)), drop)


def _ball_sums(L, v, r, p, node_budget, terms):
    """([sum of each column], npoints) over the points of L in ||x + v||_p
    <= r.  terms maps a block of (coords, embeddings) to a tuple of
    columns, each an array of one entry per point or a single number, one
    entry per block (a charge on the block); only they are held, and each
    column is one math.fsum over every block's entries, exactly rounded."""
    held, npoints = [], 0
    for coords, emb in ball_blocks(L, v, r, p, node_budget):
        held.append(terms(coords, emb))
        npoints += len(emb)
    # an empty ball: zeros
    held = held or [terms(np.zeros((0, L.dim), np.int64),
                          np.zeros((0, L.dim)))]
    return [math.fsum(itertools.chain.from_iterable(
        np.ravel(a).tolist() for a in col)) for col in zip(*held)], npoints


# reduced Lattice -> {q: its _cell_bounds}, held weakly, as _UNSHIFTED
# holds its sums, so an entry dies with its lattice
_CELLS = weakref.WeakKeyDictionary()


def _truncated(L, env, beta_eff, log_target):
    """(S, tail): the radius a certified sum truncates at, in the envelope's
    norm q, and the certified bound on the mass of e^{n loga - beta_eff
    ||y||_q^q} over the points y of v + L with ||y||_q >= S.  S grows by
    steps of 1.4, then bisects to within 2%, until that bound drops below
    e^{log_target(reduced)}, reduced the LLL basis of L."""
    reduced = lll_reduce(L)
    cells = _CELLS.setdefault(reduced, {})
    if env.q not in cells:
        cells[env.q] = _cell_bounds(reduced.basis, env.q)
    cell = cells[env.q]
    logtail = lambda S: _log_tail(L.dim, L.covolume, env, beta_eff, cell, S)
    target = log_target(reduced)
    reach = cell[0]
    try:
        S = (2.0 * reach) ** (1.0 / env.q) if env.q <= 1.0 else 2.5 * reach
    except OverflowError:  # a tiny q: no finite radius, which the presolve refuses
        S = math.inf
    S = max(S, 1e-3)
    for _ in range(400):
        if S < math.inf and logtail(S) <= target:
            break
        S *= 1.4
    else:
        why = ("" if target > -math.inf else ": every term near the shift "
               "underflows to 0 in floats: no relative tolerance can be met")
        raise ToleranceUnreachedError(math.exp(min(target, 700.0)), math.inf,
                                      where="tail presolve" + why)
    lo, hi = S / 1.4, S
    while hi / lo > 1.02:
        mid = math.sqrt(lo) * math.sqrt(hi)  # lo * hi may leave the floats
        lo, hi = (lo, mid) if logtail(mid) <= target else (mid, hi)
    return hi, math.exp(min(logtail(hi), 700.0)) * (1 + _SAFETY) + math.ulp(0.0)


def _in_range(t, compute):
    """compute(), if a positive float; else a ValueError naming the dilation t."""
    try:
        x = compute()
    except ArithmeticError:
        x = 0.0
    if not 0 < x < math.inf:
        raise ValueError(f"t = {t:g} is out of range: a scale leaves the floats")
    return x


def _exponent_slip(env, n, log_terms, drift):
    """Per point, a bound on |phi^ - phi|, where phi^ = log_terms is log_f at
    the computed y^ = fl(fl(x^ + v) / t) and phi is log f at the exact y =
    (x + v) / t, x the lattice point and x^ its float embedding: drift, one
    per point, bounds |x^_j - x_j| / t in every coordinate j (None where x^
    is exact).  0 stands for a term whose exact value is below e^-746
    (``_term_rounding``).

    First order in u, the unit roundoff (Higham, ch. 3), with exp, log1p,
    pow and cos each taken within 4 ulp.  log_f adds n coordinate terms
    phi_j <= 0, off by (n - 1) u |phi| at most.  A power family's phi_j is
    off by at most 8u |phi_j|, and sech's log 2 - z - log1p(e^{-2z}) and
    inv-cosh's z + log1p(e^{-z} + e^{-2z}), z = c |y_j|, by u (4 |phi_j| +
    32), as z e^{-z} <= 1/e.  Every family's phi_j has |phi_j'(y)| <= beta
    q |y|^(q-1) and beta |y|^q <= |phi_j(y)| + log 2 (its envelope's beta
    and q <= 2; sech's derivative is pi tanh, inv-cosh's is below beta), so
    the 2u |y^_j| by which y^ strays from (x^ + v) / t moves phi by at most
    6u (|phi^| + n log 2).  In all, (n + 16) u (|phi^| + 3n).  The drift
    moves phi by at most beta q n^(1/q) drift (||y||_q + n^(1/q)
    drift)^(q-1) (mean value theorem, then Hoelder and Minkowski), with
    ||y||_q^q <= (|phi^| + n log 2) / beta; for q < 1, by n beta drift^q,
    as ||a|^q - |b|^q| <= |a - b|^q.

    phi^ = -inf where the exponent left the floats: some beta |y^_j|^q is
    then at least F / 2n, F the largest float.  Where drift is at most a
    quarter of the least such |y^_j|, |y_j| >= |y^_j| / 2, so phi <= -F /
    8n: below e^-746.  Such a term with a larger drift gets +inf.
    """
    far = log_terms.min(initial=0.0) <= -745.0
    lost = far and log_terms == -math.inf
    size = np.abs(log_terms)
    if far:
        size = np.where(lost, 0.0, size)
    slip = (n + 16) * _U * (size + 3 * n)
    q, beta = env.q, env.beta
    if drift is not None and q < 1:
        slip = slip + n * beta * drift ** q
    elif drift is not None:
        reach = n ** (1 / q) * drift
        norm = ((size + n * math.log(2.0)) / beta) ** (1 / q)
        slip = slip + beta * q * reach * (norm + reach) ** (q - 1)
    if not far:
        return slip
    try:
        cap = (sys.float_info.max / (2 * n * beta)) ** (1 / q) / 4
    except OverflowError:  # q < 1: no coordinate term reaches F
        cap = math.inf
    below = np.where(lost, True if drift is None else drift <= cap,
                     log_terms + slip <= -746.0)
    return np.where(below, 0.0, np.where(lost, math.inf, slip))


def _term_rounding(charge, npoints):
    """A bound on sum_i |tau^_i - tau_i|, the distance of the float terms
    tau^ = exp(phi^) from the exact ones, given the charge sum_i tau^_i
    (Delta_i + 8u) over the npoints terms, Delta_i bounding |phi^_i -
    phi_i| (``_exponent_slip``), or 0 where tau_i < e^-746; the charge is
    +inf where some Delta_i exceeds 2^-10.

    exp is within 4 ulp, so |tau^ - e^{phi^}| <= 8u e^{phi^} + 4 ulp(0)
    (subnormal results), and |e^{phi^} - e^{phi}| <= e^{phi^} expm1(Delta)
    <= 1.001 Delta e^{phi^} for Delta <= 2^-10; summed, that is at most
    1.002 times the charges plus 5 ulp(0) a term, and the factor 1.01 pays
    for the rounding of the charges themselves while npoints u is below
    1e-3.  A term below e^-746 is within 5 ulp(0) of its float, which is
    at most 4 ulp(0) when phi^ <= -745.  Where some exponent may be off by
    more than 2^-10 (a term off by 0.1%), the bound is +inf.
    """
    return _up(1.01 * charge + 5 * npoints * math.ulp(0.0))


def _scaled(L, spec, t, target_tol):
    """beta_eff = beta / t^q of spec's envelope, once the arguments of a
    certified sum of f((lambda+v)/t) over L are checked: every route
    refuses the same inputs with the same errors."""
    if not t > 0:  # NaN too
        raise ValueError("t must be positive")
    if not target_tol > 0:
        raise ValueError("target_tol must be positive")
    if spec.dim != L.dim:
        raise ValueError(f"spec dimension {spec.dim} != lattice dimension {L.dim}")
    env = envelope(spec)
    return _in_range(t, lambda: env.beta / t ** env.q)


def _charged(L, spec, v, t, terms):
    """The term map of a pass over the blocks of L (``_ball_sums``) that
    charges each block the rounding of its float terms f((x+v)/t):
    (charge, *terms(embeddings, values of f, drift)), the charge one entry
    per block and summed over the pass for ``_term_rounding``.  drift
    bounds, per point, how far each coordinate of its float embedding
    fl(c B) lies from c B.  With w the largest column 2-norm of B, every
    partial sum of c B is at most ||c||_2 w in size; where B's entries are
    multiples of 2^-k and ||c||_2 w <= 2^(53-k), they are all floats and
    the embedding is exact (drift 0, or None for a whole block), and else
    drift is gamma_n ||c||_2 w."""
    env, n = envelope(spec), L.dim
    # the largest column 2-norm of B, with room for the rounding of reach
    width = float(np.sqrt((L.basis * L.basis).sum(axis=0).max())) * (
        1 + 2.0 ** -40)
    # each entry of B is a multiple of 2^-k
    k = max(x.as_integer_ratio()[1] for x in L.basis.flat).bit_length() - 1
    exact_below = math.ldexp(1.0, 53 - k)

    def charged(coords, emb):
        y = (emb + v) / t
        log_terms = log_f(spec, y)
        vals = np.exp(log_terms)
        # ||c||_2 w, at least sum_i |c_i| |b_ij| for every j, is at most
        # sqrt(n) max |c_i| w: at most exact_below on the whole block, or
        # else taken point by point
        drift = None
        if np.abs(coords).max(initial=0) * math.sqrt(n) * width > exact_below:
            reach = np.sqrt(np.einsum("ij,ij->i", coords, coords,
                                      dtype=float)) * width
            drift = np.where(reach <= exact_below, 0.0,
                             n * _U / (1 - n * _U) * reach)
        slip = _exponent_slip(env, n, log_terms,
                              None if drift is None else drift / t)
        charge = (np.dot(vals, slip + 8 * _U)
                  if slip.max(initial=0.0) <= 2.0 ** -10 else math.inf)
        return charge, *terms(emb, vals, drift)
    return charged


def _sums(L, spec, v, t, target_tol, node_budget, terms):
    """(S, tail, column sums, term rounding, npoints): the one truncation
    and the one pass of every certified sum of f((lambda+v)/t) over L.

    S, in the envelope's norm q, is grown (analytically, before any
    enumeration) until tail, the certified bound on the mass of the terms
    with ||lambda+v||_q >= S, drops below target_tol relative to the
    largest of the origin term, the term at the rounded (Babai) point
    nearest -v and, where the rows of the LLL basis are not exactly
    orthogonal, so that the Babai point need not be the nearest, the terms
    of every point within its l^2 distance of -v: each a term of the sum,
    so a positive lower bound on it.  v is a shift its callers have
    read by ``L.shift``, or zeros.  terms maps each block of the ball
    ||lambda+v||_q <= S, as (embeddings, values of f, drift), to its
    columns, each summed once, exactly rounded (``_ball_sums``); the
    term rounding bounds the summed distance of the float values of f from
    the exact ones (``_term_rounding``), whose charge is one more column
    of the pass (``_charged``).
    """
    beta_eff = _scaled(L, spec, t, target_tol)

    def log_target(reduced):
        c0 = np.round(reduced.coefficients(-v))
        cand = np.vstack([np.zeros(L.dim), c0 @ reduced.basis])
        # on exactly orthogonal rows (an exact Gram matrix) the Babai point
        # is the nearest to -v; else the nearest is within its distance.  A
        # single row is orthogonal: no pair to test
        rows = rational(reduced.basis) if np.any(v) and L.dim > 1 else []
        if any(sum(x * y for x, y in zip(a, b))
               for a, b in itertools.combinations(rows, 2)):
            r = float(np.linalg.norm(cand[1] + v))
            cand = np.vstack([cand, enumerate_arrays(L, v, r, 2,
                                                     node_budget)[1]])
        top = float(np.max(log_f(spec, (cand + v) / t)))
        # every such term is 0 in floats: no relative tolerance can be met
        return math.log(target_tol) + top if math.exp(top) > 0 else -math.inf

    env = envelope(spec)
    S, tail = _truncated(L, env, beta_eff, log_target)
    (charge, *sums), npoints = _ball_sums(L, v, S, env.q, node_budget,
                                          _charged(L, spec, v, t, terms))
    return S, tail, sums, _term_rounding(charge, npoints), npoints


def _body_sums(L, spec, v, r, p, node_budget, terms):
    """Intervals, one per column of terms, holding the exact sum of f(x +
    v) over that column's points: one pass over the ball ||x + v||_p <= r
    (a tail body), each column a part of its terms.  A column is an exactly
    rounded fsum (``_ball_sums``), within u of itself of the sum of its
    float terms, and those are within the pass's term rounding, charged as
    the kernel ``_sums`` charges every ball (``_charged``), of the exact
    ones; each end is rounded outward."""
    (charge, *sums), npoints = _ball_sums(L, v, r, p, node_budget,
                                          _charged(L, spec, v, 1.0, terms))
    rounding = _term_rounding(charge, npoints)
    return [mass + Interval(-_up(rounding + _U * mass),
                            _up(rounding + _U * mass)) for mass in sums]


# L -> {(spec, t, target_tol, node_budget): its unshifted CertifiedSum}, one
# spec per function, held weakly, so an entry dies with its lattice and no
# reused id aliases it
_UNSHIFTED = weakref.WeakKeyDictionary()


def certified_sum(L: Lattice, spec: TestFunctionSpec, v, t: float,
                  target_tol: float,
                  node_budget: int = DEFAULT_NODE_BUDGET) -> CertifiedSum:
    """Sum of f((lambda+v)/t) over the lattice, with certified remainder
    and rounding, the tail bound below target_tol relative to the sum.

    A lattice that is not split, and every 1-D one, is searched: the
    kernel ``_sums``, with the terms as its one column, sums the points with
    ||(lambda+v)/t||_q <= R = S/t in the family's natural norm q.  A split
    lattice of dimension n > 1, exactly (+)_j d_j Z e_j (``Lattice._axes``:
    Z^n, every sheared Z^n and every diagonal lattice), is summed as a
    product: every family is one over coordinates, f(x) = prod_j g(x_j),
    so the sum is prod_j sum_k g((d_j k + v_j)/t), nothing lost.  Each
    factor is the kernel's 1-D sum on d_j Z at v_j with tol/(2n), tol =
    min(target_tol, 1), which keeps the product's tail within (1 +
    tol/2n)^n - 1 <= tol of it; factors of one (d_j, v_j) are
    summed once, and their intervals multiplied, rounded outward.  partial
    is the float product of their partial sums, rounding bounds partial
    less the product's lower end and remainder_bound its upper end less
    partial, so [partial, partial + remainder_bound] holds the sum without
    rounding; npoints counts the 1-D terms summed and truncation_radius is
    the largest 1-D radius.  Both routes refuse the same arguments
    (``_scaled``), and a split basis whose spacings d_j are further apart
    than a solve's condition threshold, as a solve would refuse it.

    The unshifted sum (v = 0), the right side of every tail bound and of
    part 1 on L, is computed once per lattice and arguments, and kept
    while L lives; a call that raises keeps nothing.  exp_l1 is kept as the
    p = 1 supergaussian, whose terms are the same bits.  v is read by
    ``L.shift``.
    """
    v = L.shift(v)
    same_f = (TestFunctionSpec("supergaussian", spec.dim, 1.0)
              if spec.family == "exp_l1" else spec)
    key = (same_f, t, target_tol, node_budget)
    unshifted = not np.any(v)
    if unshifted and key in _UNSHIFTED.get(L, ()):
        return _UNSHIFTED[L][key]

    def searched(lat, f, shift, tol):
        S, tail, (partial,), rounding, npoints = _sums(
            lat, f, shift, t, tol, node_budget, lambda emb, vals, _: (vals,))
        # the fsum of the float terms is exactly rounded: within u |partial|
        return CertifiedSum(partial=partial, remainder_bound=tail,
                            truncation_radius=S / t, npoints=npoints,
                            rounding=_up(rounding + _U * partial))
    axes = L._axes if L.dim > 1 else None
    if axes is None:
        cs = searched(L, spec, v, target_tol)
    else:
        _scaled(L, spec, t, target_tol)
        spacings = [axis.covolume for axis in axes]
        cond = max(spacings) / min(spacings)
        if cond > COND_THRESHOLD:
            raise IllConditionedBasisError(cond, COND_THRESHOLD)
        one_d = TestFunctionSpec(spec.family, 1, spec.p)
        pairs = list(zip(axes, v.tolist()))
        factors = {(axis, x): searched(axis, one_d, np.array([x]),
                                       min(target_tol, 1) / (2 * L.dim))
                   for axis, x in dict.fromkeys(pairs)}
        each = [factors[pair] for pair in pairs]
        lo, hi = math.prod(f.interval() for f in each)
        partial = math.prod(f.partial for f in each)
        cs = CertifiedSum(
            partial=partial, remainder_bound=_up(hi - partial),
            truncation_radius=max(f.truncation_radius
                                  for f in factors.values()),
            npoints=sum(f.npoints for f in factors.values()),
            rounding=_up(partial - lo))
    if unshifted:
        _UNSHIFTED.setdefault(L, {})[key] = cs
    return cs


# ---------------------------------------------------------------------------
# dual-side sums


def psf_product_diagonal(L, spec):
    """|diagonal| of L*'s basis, which psf's product routes (exp_l1 and
    fractional p) sum over one coordinate at a time; None for the other
    routes.  Raises ValueError when L's basis, and so L*'s, is not exactly
    diagonal, or when R_TAIL, where the fractional-p series' tail starts,
    is pre-asymptotic (``transform._refuse_pre_asymptotic``), so a plan can
    refuse the check before it runs."""
    route = fhat_route(spec)
    if route not in ("rational_product", "table"):
        return None
    if np.any(L.basis != np.diag(np.diag(L.basis))):
        raise ValueError(
            f"{spec.family!r} dual sums decay too slowly for a general "
            "basis; only diagonal lattices are supported")
    if route == "table":
        _refuse_pre_asymptotic(spec.p, R_TAIL, 1e-8)
    return np.abs(np.diag(dual(L).basis)).astype(float)


def _sum1d_rational(a, theta):
    """An Interval holding sum_k 2/(1 + 4 pi^2 a^2 k^2) cos(2 pi theta k).

    By Poisson summation the series is (1/a) sum_m e^{-|m + x|/a}, x = theta
    mod 1, two geometric series (Gradshteyn-Ryzhik 1.445) with the closed
    form (e^{-x/a} + e^{-(1-x)/a}) / (a (1 - e^{-1/a})).  Rounding (Higham,
    ch. 3): x, 1 - x and their quotients by a are off by at most 3u/a,
    which exp turns into a relative error; exp, expm1 (1 ulp each) and four
    more operations add 8u, so 10 (1 + 1/a) u value bounds the error, plus
    the least subnormal per exponential that underflows.
    """
    a = abs(float(a))
    x = theta - math.floor(theta)
    den = -a * math.expm1(-1.0 / a)
    value = (math.exp(-x / a) + math.exp(-(1.0 - x) / a)) / den
    err = 10.0 * (1.0 + 1.0 / a) * _U * value + 2 * math.ulp(0.0) / den
    return value + Interval(-err, err)


def _sum1d_fractional(p, a, theta):
    """An Interval holding sum_k fhat_p(a k) cos(2 pi theta k), fractional p.

    fourier_1d evaluates fhat_p at the exact points a k, |k| <= K = ceil(R/a)
    + 1, R = R_TAIL; fhat_p is even, so k >= 0 are summed, k > 0 twice.
    The error charges each point its estimate times |cos|, and a rounding
    allowance: the phase, reduced to x = theta mod 1, is off by 6 pi u x k
    and cos by u, and fl(a k) by u a k, which moves fhat_p by at most u
    times |r fhat_p'(r)| <= fhat_p(r) + fhat_p(0) (differentiate (1/r) int
    e^{-|s/r|^p} cos(2 pi s) ds).  The omitted |k| > K lie past R, where
    fhat_p is taken to be below twice its asymptote |C_p| r^{-p-1} (checked
    within 5% at R by psf_product_diagonal, not proven), so they add at
    most 4 |C_p| a^{-p-1} K^{-p} / p.
    """
    a = abs(float(a))
    K = int(math.ceil(R_TAIL / a)) + 1
    if 2 * K + 1 > DEFAULT_GRID_BUDGET:
        raise BudgetExceededError(DEFAULT_GRID_BUDGET, 2 * K + 1)
    k = np.arange(K + 1, dtype=float)
    value, err = fourier_1d(p, a * k, tol=math.inf)
    x = theta - math.floor(theta)
    cos = np.cos(2 * math.pi * x * k)
    w = np.where(k > 0, 2.0, 1.0)
    partial = math.fsum(w * value * cos)
    top = value + err
    rounding = _U * float(np.sum(w * (top * (3 + 20 * x * k) + top[0])))
    C = abs(transform_tail_coefficient(p))
    tail = 4.0 * C * a ** (-p - 1) * K ** (-p) / p
    err = (float(np.sum(w * err * np.abs(cos))) + rounding + tail) * (
        1 + _SAFETY)
    return partial + Interval(-err, err)


def _product_fhat_sum(diag, spec, t, theta, tol_abs):
    """An Interval holding sum_k prod_j fhat_1d(t d_j k_j)
    cos(2 pi theta_j k_j) over Z^n, one 1-D series per coordinate, each
    evaluated once; raises ToleranceUnreachedError when the product's
    half-width exceeds tol_abs, as a fractional-p factor's tail can make it.
    spec takes a product route: exp_l1's closed form, or fractional p."""
    one_d = (_sum1d_rational if fhat_route(spec) == "rational_product"
             else functools.partial(_sum1d_fractional, spec.p))
    lo, hi = math.prod(one_d(t * d, th) for d, th in zip(diag, theta))
    if (hi - lo) / 2 > tol_abs:
        raise ToleranceUnreachedError(tol_abs, (hi - lo) / 2,
                                      where=f"{spec.label} dual product")
    return Interval(lo, hi)


def _dual_sums(L, spec, v, t, target_tol, node_budget):
    """(shifted, unshifted): Intervals holding covol(L) sum_L f(lambda/t)
    cos(2 pi lambda.v) and covol(L) sum_L f(lambda/t), from one ball.

    By Poisson summation, with f even, they are t^n sum_{L*} fhat(t (mu +
    v)) and t^n sum_{L*} fhat(t mu).  They are columns of one pass of the
    kernel ``_sums`` at v = 0, which truncates as certified_sum(L, spec, 0,
    t, target_tol) does, so target_tol is relative to f(0), and both sums
    carry that sum's tail bound, since |cos| <= 1.  The terms are signed,
    so each is covol (partial + [-h, h]), rounded outward, h the tail bound
    plus the rounding of its column, and the sin part of the phase must
    cancel over the symmetric point set.  v is read by ``L.shift``, so a
    shift of the wrong length is refused, never broadcast.
    """
    v = L.shift(v)
    size_v = float(np.abs(v).sum())

    def terms(emb, vals, drift):
        # row by row, so a row's phase does not depend on its block
        parts = emb * v
        phase = 2 * math.pi * parts.sum(axis=1)
        slip = 2 * math.pi * ((L.dim + 3) * _U * np.einsum(
            "ij,j->i", np.abs(emb), np.abs(v)))
        if drift is not None:
            slip = slip + 2 * math.pi * size_v * drift
        return (np.dot(vals, np.minimum(slip, 2.0) + 10 * _U),
                vals * np.cos(phase), vals * np.sin(phase), vals)
    _, tail, (phase_charge, shifted, sin_part, unshifted), rounding, _ = _sums(
        L, spec, np.zeros(L.dim), t, target_tol, node_budget, terms)
    # the point set is symmetric, so the sin pairing must cancel
    if not abs(sin_part) <= 1e-12 * max(1.0, abs(shifted)):
        raise InvariantError(
            "sin pairing failed to cancel over the symmetric point set")

    def certified(partial, rounding):
        # the fsum of a column is exactly rounded: within u |partial|
        half = _up(tail + _up(rounding + _U * abs(partial)))
        return L.covolume * (partial + Interval(-half, half))
    # The shifted column's phase: the computed one, 2 pi fl(x^ . v), is
    # within 2 pi (drift ||v||_1 + (n + 3) u sum_j |x^_j v_j|) of the exact
    # 2 pi x . v, so each cos, itself within 4 ulp, is off by at most that
    # slip (and never by more than 2) plus 8u, and its product with the
    # term by u more.  Weighted by the exact term, at most the float one
    # plus its error, that counts the term errors at most 3.01 times; the
    # larger factors pay for the rounding of the charges.
    phase = _up(3.1 * rounding + 1.01 * phase_charge)
    return certified(shifted, phase), certified(unshifted, rounding)


def dual_fhat_sum(L: Lattice, spec: TestFunctionSpec, v, target_tol: float,
                  node_budget: int = DEFAULT_NODE_BUDGET) -> Interval:
    """An Interval holding the sum of fhat(mu + v) over the dual lattice,
    for any family and any basis, by Poisson summation on the primal side:

        sum_{L*} fhat(mu + v)  =  covol(L) sum_L f(lambda) cos(2 pi lambda.v),

    which holds because every family is even.  target_tol is relative to
    the unshifted sum (``_dual_sums`` at t = 1, which reads v by
    ``L.shift``); the interval's two ends carry the tail bound and the
    rounding of the signed terms.
    """
    return _dual_sums(L, spec, v, 1.0, target_tol, node_budget)[0]


def _psf_residual(L, spec, v, t, tol, node_budget):
    """An Interval holding |LHS - RHS| / RHS for the summation identity

        sum_L f((lambda+v)/t)  =  (t^n/covol) sum_{L*} fhat(t mu) cos(2 pi mu.v),

    the two ends of Poisson summation, each an Interval summed to an
    absolute error of at most tol times the left side: certified_sum over
    L, and (where fhat has an exponential envelope, so that
    psf_product_diagonal is None) part 3's kernel ``_dual_sums`` over the
    cached L*, with g dilated by 1/s: the right side is s^n covol(L*)
    sum_{L*} g(s mu) cos(2 pi mu.v), with s = t and g = f for a self-dual
    f, and s = sqrt(pi) t and g the gaussian for supergaussian p=2, whose
    fhat(y) = pi^{n/2} g(sqrt(pi) y).  exp_l1 and fractional p sum a
    diagonal dual as a product of 1-D series, exp_l1's in closed form and
    fractional p's from fhat_p at the exact points, with a power-law tail
    past r = R_TAIL as the error's floor.
    Both ends of the residual are rounded outward (``Interval``).  Where the
    right side is not known positive (its lower end is 0 or below, as when
    its error reaches the sum or the sum underflows), the residual is
    [0, inf], which no max_residual decides.  tol must be below 1: at tol
    >= 1 the right side may carry an error larger than the sum.
    """
    if not tol < 1:
        raise ValueError(f"psf needs tol < 1, got tol = {tol:g}: the dual "
                         "side's error may exceed the sum")
    v = L.shift(v)
    diag = psf_product_diagonal(L, spec)
    lhs = certified_sum(L, spec, v, t, tol, node_budget)
    n = L.dim
    budget = tol * max(lhs.partial, 1e-12)  # absolute error allowed the RHS
    if diag is None:  # self-dual, or the supergaussian at p = 2
        s, g = ((math.sqrt(math.pi) * t, TestFunctionSpec("gaussian", n))
                if spec.family == "supergaussian" else (t, spec))
        D = dual(L)
        scale = _in_range(t, lambda: s ** n)
        # the kernel's error is covol(L*) g(0) target_tol, times s^n here
        target_tol = budget / _in_range(
            t, lambda: scale * D.covolume * math.exp(log_f(g, np.zeros(n))))
        rhs = scale * _dual_sums(D, g, v, 1 / s, target_tol, node_budget)[0]
    else:
        factor = _in_range(t, lambda: t ** n / L.covolume)
        # cos(2 pi mu . v) factorizes over the coordinates of a diagonal dual
        rhs = factor * _product_fhat_sum(diag, spec, t, diag * v,
                                         budget / factor)
    if not rhs.lo > 0:
        return Interval(0.0, math.inf)
    diff = lhs.interval() - rhs
    size = Interval(max(0.0, diff.lo, -diff.hi), max(-diff.lo, diff.hi))
    return size * Interval(_down(1 / rhs.hi), _up(1 / rhs.lo))


def psf_residual(L: Lattice, spec: TestFunctionSpec, v, t: float,
                 tol: float, node_budget: int = DEFAULT_NODE_BUDGET) -> float:
    """The certified upper end of |LHS - RHS| / RHS for the summation
    identity of ``_psf_residual``: both sides are Intervals, so the exact
    residual of the two exact sums is at most this float."""
    return _psf_residual(L, spec, v, t, tol, node_budget).hi


# ---------------------------------------------------------------------------
# inequality checks


def _verdict(lhs_iv, rhs_iv):
    """(margin, verdict) for the claim lhs <= rhs, each a (lo, hi) pair.

    PASS needs the whole of lhs at or below the whole of rhs, FAIL the whole
    of lhs above the whole of rhs; overlapping intervals are INCONCLUSIVE.
    """
    margin = rhs_iv[0] - lhs_iv[1]
    if margin >= 0:
        return margin, PASS
    if lhs_iv[0] > rhs_iv[1]:
        return margin, FAIL
    return margin, INCONCLUSIVE


def _record(check, lattice_id, params, verdict, **results):
    """The report entry of one check: its results, in call order, between
    its params and its verdict."""
    return {"check": check, "lattice_id": lattice_id, "params": params,
            **results, "verdict": verdict}


def _compared(lhs_iv, rhs_iv, margin):
    """The results of comparing two (lo, hi) pairs, as record fields."""
    return {"lhs_interval": [float(lhs_iv[0]), float(lhs_iv[1])],
            "rhs_interval": [float(rhs_iv[0]), float(rhs_iv[1])],
            "margin": float(margin)}


def _spec_params(spec, **extra):
    out = {"family": spec.family}
    if spec.p is not None:
        out["p"] = float(spec.p)
    out.update(extra)
    return out


def check_theta(L: Lattice, spec: TestFunctionSpec, v, t: float,
                tol: float = 1e-9, node_budget: int = DEFAULT_NODE_BUDGET):
    """The record of certified_sum(L, spec, v, t, tol): a sum claims no
    inequality, so its verdict is PASS once it is certified."""
    cs = certified_sum(L, spec, v, t, tol, node_budget=node_budget)
    return _record("theta", L.name,
                   _spec_params(spec, v=[float(x) for x in v], t=t, tol=tol),
                   PASS, partial=cs.partial,
                   remainder_bound=cs.remainder_bound, rounding=cs.rounding,
                   truncation_radius=cs.truncation_radius, npoints=cs.npoints)


def check_psf(L: Lattice, spec: TestFunctionSpec, v, t: float, tol: float,
              max_residual: float, node_budget: int = DEFAULT_NODE_BUDGET):
    """Check |LHS - RHS| / RHS <= max_residual on the residual Interval of
    ``_psf_residual``: PASS when its upper end is at most max_residual, FAIL
    when its lower end exceeds it, INCONCLUSIVE otherwise, as always where
    the right side is not known positive.  The record's residual is the
    upper end, psf_residual(L, spec, v, t, tol), which is then inf."""
    res = _psf_residual(L, spec, v, t, tol, node_budget)
    _, verdict = _verdict(res, (max_residual, max_residual))
    params = _spec_params(spec, t=t, tol=tol, v=[float(x) for x in v],
                          max_residual=max_residual)
    return _record("psf", L.name, params, verdict, residual=res.hi)


def check_part1(L: Lattice, spec: TestFunctionSpec, v, t: float,
                tol: float = 1e-9,
                node_budget: int = DEFAULT_NODE_BUDGET) -> dict:
    """Check sum f((lambda+v)/t) <= t^n sum f(lambda) for t >= 1.

    At t=1, v=0 the two sides are the same expression; it is computed once
    and reported with margin exactly 0.
    """
    if not t >= 1:  # NaN too
        raise ValueError("t must be >= 1")
    v = L.shift(v)
    lhs = certified_sum(L, spec, v, t, tol, node_budget)
    params = _spec_params(spec, v=[float(x) for x in v], t=float(t), tol=tol)
    if t == 1.0 and not np.any(v):
        # both sides are one expression: their difference is exactly 0
        rhs_iv = lhs.interval()
        margin, verdict = _verdict((0.0, 0.0), (0.0, 0.0))
    else:
        base = certified_sum(L, spec, np.zeros(L.dim), 1.0, tol, node_budget)
        rhs_iv = math.prod([Interval(t, t)] * L.dim) * base.interval()
        margin, verdict = _verdict(lhs.interval(), rhs_iv)
    return _record("part1", L.name, params, verdict,
                   **_compared(lhs.interval(), rhs_iv, margin))


def _body_envelope(spec, K):
    """spec's envelope, once the tail body K is a ball of its norm q."""
    env = envelope(spec)
    if K.p != env.q:
        raise ValueError(f"{spec.label} tail bodies must be l^{env.q:g} balls")
    return env


def nu_for_body(spec: TestFunctionSpec, K: BodySpec, n: int) -> NuBound:
    """The certified tail coefficient nu(R) = f(R) / sup_{0<u<=1} u^n f(uR)
    for (spec, K), K the l^q ball of radius R, by one of two routes.

    The gaussian, the supergaussian and exp_l1 are their own envelope,
    f = e^{-beta ||x||_q^q} (``functions.envelope``), so with r = beta^{1/q} R
    (sqrt(pi) R for the gaussian) nu is the coefficient of e^{-s^q} at r.
    d/du [n log u - (u r)^q] = (n - q (u r)^q) / u, so from the inflection
    scale r >= (n/q)^{1/q} out the sup sits at u = (n/q)^{1/q} / r and nu is
    the closed form (e t^q e^{-t^q})^{n/q}, t = r / (n/q)^{1/q}; inside it
    the derivative is positive on (0, 1], the sup sits at u = 1 and nu is
    exactly 1.  The inv-cosh product is not radial in any l^p norm and is
    bounded through its l^1-ball analysis instead.  Neither route
    maximises over u numerically.
    """
    if spec.family == "sech_product":
        raise ValueError("no certified tail coefficient route for sech_product")
    env = _body_envelope(spec, K)
    if spec.family == "inv_cosh_product":
        return cosh_nu_bound(K.radius / ((1 + cstar()) * n), n)
    r = env.beta ** (1.0 / env.q) * K.radius
    if r >= (n / env.q) ** (1.0 / env.q):
        return supergaussian_mu_closed_form(env.q, r, n)
    return NuBound(1.0, "closed_form")


def check_tail_inequality(L: Lattice, spec: TestFunctionSpec, K: BodySpec,
                          v, nu: NuBound, tol: float = 1e-9,
                          node_budget: int = DEFAULT_NODE_BUDGET) -> dict:
    """Check sum_{lambda+v not in K} f(lambda+v) <= nu * sum_L f(lambda).

    The out-of-K mass is the certified shifted sum minus the exact sum over
    the finitely many points inside K, one pass over the body alone, its
    boundary ties within 1e-12 relative kept.  K must be a ball of the
    envelope's norm.  The full sum is certified_sum's unshifted one, which
    every check on one lattice, spec and tol shares; at v = 0 it is also
    the shifted sum, so a second such check at v = 0 sums only its body.
    """
    v = L.shift(v)
    _body_envelope(spec, K)
    shifted = certified_sum(L, spec, v, 1.0, tol, node_budget)
    full = certified_sum(L, spec, np.zeros(L.dim), 1.0, tol, node_budget)
    (inner,) = _body_sums(L, spec, v, K.radius, K.p, node_budget,
                          lambda emb, vals, _: (vals,))
    lhs_iv = shifted.interval() - inner
    rhs_iv = nu.value * full.interval()
    params = _spec_params(spec, body_p=float(K.p), body_radius=float(K.radius),
                          v=[float(x) for x in v], nu=nu.value,
                          nu_method=nu.method, tol=tol)
    margin, verdict = _verdict(lhs_iv, rhs_iv)
    return _record("tail_inequality", L.name, params, verdict,
                   **_compared(lhs_iv, rhs_iv, margin))


def tail_masses(L, spec, K, v, nu, record, radii,
                node_budget=DEFAULT_NODE_BUDGET):
    """Per radius rho of radii, (an upper end of the mass of f(lambda + v)
    outside the ball ||lambda + v||_q <= rho, the tail bound at rho or
    None), read off the record of check_tail_inequality(L, spec, K, v, nu):
    the mass outside rho is at most the record's upper end plus the mass
    inside K less the mass inside rho, and the bound scales its rhs by
    nu(rho)/nu, None outside a closed form's domain and where nu = 0.  One
    pass over the ball of the largest radius sums every mass, the body cut
    as the check cuts it, ties within 1e-12 relative kept; each mass is an
    Interval charged as the check charges its body (``_body_sums``), and
    the upper end is rounded outward."""
    cuts = [*radii, K.radius * (1 + _BOUNDARY_SLACK)]

    def terms(emb, vals, _):
        norms = lp_norm(emb + v, K.p)
        return tuple(vals[norms <= cut] for cut in cuts)
    *inside, inner = _body_sums(L, spec, v, max(*radii, K.radius), K.p,
                                node_budget, terms)

    def bound(radius):
        try:
            return record["rhs_interval"][0] / nu.value * nu_for_body(
                spec, BodySpec(K.p, float(radius)), L.dim).value
        except (ValueError, ArithmeticError):
            return None
    return [((record["lhs_interval"][1] + inner - mass).hi, bound(radius))
            for radius, mass in zip(radii, inside)]


def check_part3(L: Lattice, spec: TestFunctionSpec, K: BodySpec, v,
                nu: NuBound, tol: float = 1e-9,
                node_budget: int = DEFAULT_NODE_BUDGET) -> dict:
    """Check sum_{L*} fhat(mu+v) >= (1 - 2 nu) sum_{L*} fhat(mu).

    Requires that K contain no nonzero lattice vector; that is verified by
    exact enumeration first, and a violation is an error naming the vector.
    Both dual sums come from one pass over one ball of the kernel
    ``_dual_sums`` at t = 1, the kernel that psf runs on L* with f dilated
    by 1/t, so the check rests on Poisson summation (a theorem, not the
    inequality under test) and works for any family and basis.  Each sum
    is an Interval whose ends carry the tail bound and the rounding of its
    signed terms, and tol is relative to the unshifted sum.  v is read by
    ``L.shift``.
    """
    v = L.shift(v)
    coords, emb = enumerate_arrays(L, np.zeros(L.dim), K.radius, K.p,
                                   node_budget)
    nonzero = np.any(coords != 0, axis=1)
    if np.any(nonzero):
        witness = emb[nonzero][0]
        raise ValueError(
            f"K (l^{K.p:g} ball, radius {K.radius:g}) contains the nonzero "
            f"lattice vector {np.round(witness, 12).tolist()}")
    lhs_iv, full = _dual_sums(L, spec, v, 1.0, tol, node_budget)
    rhs_iv = (1.0 - 2.0 * nu.value) * full
    # the claim is rhs <= lhs
    margin, verdict = _verdict(rhs_iv, lhs_iv)
    params = _spec_params(spec, body_p=float(K.p), body_radius=float(K.radius),
                          v=[float(x) for x in v], nu=nu.value, tol=tol)
    return _record("part3", L.name, params, verdict,
                   **_compared(lhs_iv, rhs_iv, margin))


class HandshakeCensus(NamedTuple):
    count: int
    bound: float
    verdict: str

    @property
    def passed(self):
        return self.verdict == PASS


def handshake_census(L: Lattice, p: float, u: float,
                     node_budget: int = DEFAULT_NODE_BUDGET) -> HandshakeCensus:
    """Exact count of nonzero points with ||x||_p <= u * sigma_p, vs the cap."""
    bound = handshake_bound(L.dim, p, u)  # refuses p and u before any search
    sigma, _ = shortest_vector(L, p, node_budget)
    count = sum(int(np.any(coords != 0, axis=1).sum()) for coords, _ in
                ball_blocks(L, np.zeros(L.dim), u * sigma, p, node_budget))
    _, verdict = _verdict((count, count), (bound, bound))
    return HandshakeCensus(count=count, bound=bound, verdict=verdict)


def check_handshake(L: Lattice, p: float, u: float,
                    node_budget: int = DEFAULT_NODE_BUDGET):
    """The record of handshake_census(L, p, u)."""
    hc = handshake_census(L, p, u, node_budget=node_budget)
    return _record("handshake", L.name, {"p": p, "u": u}, hc.verdict,
                   count=hc.count, bound=hc.bound)


def check_hypothesis_sampling(spec: TestFunctionSpec, samples: int, seed: int,
                              table=None):
    """The record of functions.check_hypotheses: the claim is that no
    sample violates a hypothesis, so it PASSes when the violations, summed
    over the hypotheses, are at most 0, with the worst margin among them."""
    rep = check_hypotheses(spec, samples=samples, seed=seed, table=table)
    worst = min(st.worst_margin for st in rep.checks.values())
    total = sum(st.violations for st in rep.checks.values())
    _, verdict = _verdict((total, total), (0, 0))
    return _record("hypotheses", "",
                   {"family": spec.family, "dim": spec.dim,
                    **({"p": spec.p} if spec.p is not None else {}),
                    "samples": samples, "seed": seed},
                   verdict, violations=total, worst_margin=worst)


@dataclass(frozen=True)
class TransferenceReport:
    """sigma_p of L times the covering-radius bracket of its dual, vs bound."""

    sigma: float
    rho_bracket: tuple
    product_upper: float
    stated_bound: float
    margin: float
    verdict: str
    p: float
    resolution: int
    lattice_id: str = ""

    def record(self):
        params = {"p": self.p, "resolution": self.resolution,
                  "sigma": self.sigma, "rho_lower": self.rho_bracket[0],
                  "rho_upper": self.rho_bracket[1]}
        return _record("transference", self.lattice_id, params, self.verdict,
                       **_compared(self.sigma * Interval(*self.rho_bracket),
                                   (self.stated_bound, self.stated_bound),
                                   self.margin))


def transference_check(L: Lattice, p: float, resolution: int = 64,
                       node_budget: int = DEFAULT_NODE_BUDGET,
                       grid_budget: int = DEFAULT_GRID_BUDGET) -> TransferenceReport:
    """sigma_p(L) * rho_p(dual L) against the dimension bound, p in {1, 2}.

    The covering bracket is certified for the exact dual lattice, not for
    the float inverse of L's basis that the search runs on.
    """
    if p not in (1, 2):
        raise ValueError("transference bounds are implemented for p in {1, 2}")
    n = L.dim
    sigma, _ = shortest_vector(L, p, node_budget)
    # The search runs on Ld, whose basis is the float inverse of L's.  As
    # exact rationals Ld.basis = B^-T @ M with M = B^T @ Ld.basis, so the
    # exact dual's radius follows from the bracket and ||M - I||; the
    # transport also rounds out the float error of the distances.
    Ld = dual(L)
    M = rational_matmul(rational(L.basis.T), rational(Ld.basis))
    rho_lo, rho_hi = transport_bracket(
        *covering_radius_estimate(Ld, p, resolution, grid_budget=grid_budget,
                                  node_budget=node_budget),
        distortion_bound(M, p))
    bound = transference_bound_l2(n) if p == 2 else transference_bound_l1(n).value
    product = sigma * Interval(rho_lo, rho_hi)
    margin, verdict = _verdict(product, (bound, bound))
    return TransferenceReport(sigma=float(sigma),
                              rho_bracket=(float(rho_lo), float(rho_hi)),
                              product_upper=float(product.hi),
                              stated_bound=float(bound), margin=float(margin),
                              verdict=verdict, p=float(p),
                              resolution=int(resolution), lattice_id=L.name)
