"""Extremal Hilbert functions of configuration spaces of CP^m.

The top of the complex for C_k(CP^m) sits near degree k(2m-2); the
interesting story is the "ray" k -> dim H^{k(2m-2)+i} for a fixed
offset i.  This module samples those rays (at each k, dim H^D reads
only the degrees >= D - 1 of the reduced complex, so only they are
built), fits exact quasi-polynomial certificates to the tails (one
forward-difference table per residue class decides the class's least
degree and, in Newton's form, gives its coefficients), and packages
the verification of the expected vanishing behaviour into a report:

  * for every i >= 4 the ray vanishes once k >= 4;
  * for m >= 2 and i in {1, 2, 3} the ray vanishes for large k (the
    report records the onset actually observed and flags it as
    "sharper" when it beats the claimed bound of 8);
  * at the largest sampled k, three structural facts about the reduced
    complex pin down why: the two-term subcomplex in degrees
    k(2m-2)+2, +3 is exact, the block out of (k(2m-2)+1, weight 1) has
    rank 1 with a 2-dimensional kernel, and the block out of
    (k(2m-2), weight 2) has rank 2.

The offset-0 ray is sampled and reported as data, with no claim
attached.
"""

import os
from collections import namedtuple
from fractions import Fraction
from math import factorial

from .cecomplex import build_generators
from .homology import _build, _full_vs_reduced
from .ring import _check_int, make_cpm


class UnderDeterminedError(ValueError):
    """Too few samples to certify any candidate in the search space."""


class HilbertRay(namedtuple("HilbertRay", "m i samples")):
    """Samples of k -> dim H^{k(2m-2)+i}(C_k(CP^m)) on a contiguous range.

    samples is ((k, dim), ...) with consecutive k.
    """
    __slots__ = ()

    def k_range(self):
        return (self.samples[0][0], self.samples[-1][0])


class QuasiPolynomial(namedtuple("QuasiPolynomial", "onset coefficients")):
    """Certificate: for k >= onset, f(k) = P_{k mod period}(k).

    coefficients[r] lists the coefficients (Fractions) of the class-r
    polynomial in ascending powers of k (so the polynomials are in k
    itself, not in the class index).  period (the number of classes)
    and degree (the longest class's length minus 1) are read off them.
    The certificate is minimal in lexicographic (period, onset, degree)
    order among those the samples support.
    """
    __slots__ = ()
    period = property(lambda self: len(self.coefficients))
    degree = property(lambda self: max(map(len, self.coefficients)) - 1)

    def evaluate(self, k):
        coeffs = self.coefficients[k % self.period]
        acc = Fraction(0)
        for c in reversed(coeffs):
            acc = acc * k + c
        return acc

    def is_zero(self):
        return all(not c for coeffs in self.coefficients for c in coeffs)

    def matches(self, samples):
        """Exact agreement with every sample at k >= onset."""
        return all(self.evaluate(k) == d for k, d in samples if k >= self.onset)

    def to_json_dict(self):
        return {
            "period": self.period,
            "onset": self.onset,
            "degree": self.degree,
            "classes": [[str(c) for c in coeffs]
                        for coeffs in self.coefficients],
        }


def _edge(G, k):
    """The extremal edge of C_k(M): k(d - 2) for d = dim M, k(2m - 2) on CP^m."""
    return k * (G.manifold_dimension - 2)


def _dims_for_k(args):
    """Worker: full Betti dims of C_k(CP^m), checked against the reduced ones.

    args is (G, k), G the generator set of CP^m; top-level so it pickles.
    Returns (k, (full, first, facts)): first is the first degree where the
    tables differ, or None, and facts are read off the reduced build.
    """
    G, k = args
    full, reduced, first = _full_vs_reduced(G, k)
    return k, (full.dims, first, _structural_facts(reduced, G, k))


def worker_count(jobs, n_tasks):
    """Processes for n_tasks tasks: at most jobs (an int >= 1), tasks and the
    CPUs this process may run on (all of the host's where the platform cannot tell)."""
    _check_int(jobs, "jobs", 1)
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return max(1, min(jobs, n_tasks, cpus or 1))


def _betti_dims_range(G, ks, jobs):
    """_dims_for_k over a list of k, optionally fanned out to processes.

    One task per k carries G and builds both modes in one process.
    Workers take the largest k first, and results are keyed by k, so
    the outcome is byte-identical for any job count.
    """
    tasks = [(G, k) for k in ks]
    workers = worker_count(jobs, len(tasks))
    if workers == 1:
        return dict(_dims_for_k(t) for t in tasks)
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=workers) as pool:
        return dict(pool.map(_dims_for_k, tasks[::-1]))


def hilbert_ray(m, i, k_min, k_max):
    """Sample the offset-i extremal ray of CP^m over k_min..k_max.

    Takes m, the ring it computes on: one generator set of CP^m is
    built here, which also fixes the edge k(2m-2).  Each k builds the
    degrees >= D - 1 of the reduced complex, D = k(2m-2) + i: all that
    dim H^D reads.  The reduced complex is the full one below k = 2, so
    any k >= 0 works.
    """
    G = build_generators(make_cpm(m))
    _check_int(i, "offset i", 0)
    _check_int(k_min, "k", 0)
    _check_int(k_max, "k", 0)
    if k_min > k_max:
        raise ValueError("empty k range")
    samples = []
    for k in range(k_min, k_max + 1):
        degree = _edge(G, k) + i
        samples.append((k, _build(G, k, "reduced", degree).table.dim(degree)))
    return HilbertRay(m=m, i=i, samples=tuple(samples))


def _least_polynomial(points, bound):
    """Ascending coefficients in k of the least-degree polynomial through points.

    points are (k, value) at evenly spaced k.  One forward-difference
    table decides and interpolates: the degree is the least D <= bound
    whose (D+1)-th differences vanish with at least D+2 points, and the
    table's leading entries are the coefficients of Newton's form,
    expanded exactly into Fractions.  Returns None when no such D
    exists.
    """
    row = [y for _, y in points]
    heads = []
    for _ in range(min(bound, len(row) - 2) + 1):
        heads.append(row[0])
        row = [b - a for a, b in zip(row, row[1:])]
        if not any(row):
            break
    else:
        return None
    step = points[1][0] - points[0][0]
    coeffs = []
    for j in reversed(range(len(heads))):
        # coeffs * (k - k_j) + (j-th difference) / (j! step^j)
        k_j = points[j][0]
        coeffs = [a - k_j * b for a, b in zip([0] + coeffs, coeffs + [0])]
        coeffs[0] += heads[j] / (factorial(j) * step ** j)
    return coeffs


def _exact_sample(sample):
    """sample as a pair (k, value): k an int, value an int or a Fraction, no bool."""
    if isinstance(sample, (tuple, list)) and list(map(type, sample)) in ([int, int], [int, Fraction]):
        return tuple(sample)
    raise ValueError("sample %r is not (k, value), k an int and value an int or a Fraction"
                     % (sample,))


def detect_quasi_polynomial(samples, p_max=6, deg_max=4):
    """Minimal quasi-polynomial certificate for a sampled tail.

    samples is a sequence of exact (k, value) at consecutive k: k an
    int, value an int or a Fraction (any other sample, a float or a
    bool among them, raises ValueError naming it).  p_max is an int
    >= 1 and deg_max an int >= 0.  Candidates (period p, onset N)
    are scanned in lexicographic order; a candidate is certifiable when
    every residue class mod p has at least 2 samples at k >= N.  Each
    class gets one forward-difference table, which gives both its least
    degree D (within deg_max, with at least D+2 samples in every class)
    and its exact coefficients.  The first candidate where every class
    fits is returned, with degree the largest class degree: the minimal
    certificate in (period, onset, degree) order.

    Returns None when certifiable candidates exist but none fits;
    raises UnderDeterminedError when the sample window is too short to
    certify anything at all.
    """
    _check_int(p_max, "p_max", 1)
    _check_int(deg_max, "deg_max", 0)
    samples = sorted(map(_exact_sample, samples))
    if not samples:
        raise UnderDeterminedError("no samples")
    ks = [k for k, _ in samples]
    if ks != list(range(ks[0], ks[0] + len(ks))):
        raise ValueError("samples must cover consecutive k")
    by_k = dict(samples)
    k_lo, k_hi = ks[0], ks[-1]

    any_certifiable = False
    # a period above half the window leaves some class with < 2 samples
    for p in range(1, min(p_max, len(samples) // 2) + 1):
        for onset in range(k_lo, k_hi + 2):
            classes = [[(k, Fraction(by_k[k]))
                        for k in range(onset, k_hi + 1) if k % p == r]
                       for r in range(p)]
            max_deg = min(map(len, classes)) - 2
            if max_deg < 0:
                continue
            any_certifiable = True
            fits = []
            for pts in classes:
                fits.append(_least_polynomial(pts, min(deg_max, max_deg)))
                if fits[-1] is None:
                    break
            else:
                return QuasiPolynomial(onset=onset, coefficients=tuple(map(tuple, fits)))
    if not any_certifiable:
        raise UnderDeterminedError(
            "window k=%d..%d cannot certify any (period <= %d, degree <= %d) candidate"
            % (k_lo, k_hi, p_max, deg_max))
    return None


class RangeCheck(namedtuple(
        "RangeCheck", "check_id description status claimed_onset observed_onset detail",
        defaults=(None, None, None))):
    """One line of the verification report; status is "pass", "sharper" or "fail"."""
    __slots__ = ()

    def to_json_dict(self):
        out = {"id": self.check_id, "description": self.description,
               "status": self.status}
        if self.claimed_onset is not None:
            out["claimed_onset"] = self.claimed_onset
        out["observed_onset"] = self.observed_onset
        if self.detail is not None:
            out["detail"] = self.detail
        return out


class RangeReport(namedtuple("RangeReport", "m k_max checks i0_samples")):
    """Verification of the extremal vanishing ranges for one CP^m."""
    __slots__ = ()

    @property
    def ok(self):
        return all(c.status != "fail" for c in self.checks)

    def to_json_dict(self):
        return {
            "ring": "CP^%d" % self.m,
            "k_max": self.k_max,
            "checks": [c.to_json_dict() for c in self.checks],
            "i0_ray": [list(s) for s in self.i0_samples],
            "ok": self.ok,
        }

    def to_text(self):
        lines = ["extremal range verification: CP^%d, k up to %d" % (self.m, self.k_max)]
        for c in self.checks:
            line = "%-24s %s" % (c.check_id, c.description)
            if c.claimed_onset is not None:
                line += "; claimed onset %s" % c.claimed_onset
            if c.observed_onset is not None:
                line += "; observed onset %s" % c.observed_onset
            line += "; %s" % c.status.upper()
            lines.append(line)
        lines.append("offset-0 ray (reported, no claim): "
                     + ", ".join("k=%d: %d" % s for s in self.i0_samples))
        lines.append("overall: %s" % ("pass" if self.ok else "FAIL"))
        return "\n".join(lines)


def _observed_onset(flags):
    """First k after which a per-k predicate holds through the window.

    flags is a sorted list of (k, bool); returns the smallest k0 such
    that the predicate holds for all sampled k >= k0, or None if it
    fails at the final sample.
    """
    onset = None
    for k, good in flags:
        if good:
            if onset is None:
                onset = k
        else:
            onset = None
    return onset


def _vanishing_check(check_id, description, flags, claimed):
    """RangeCheck of a vanishing claim from per-k (k, vanishes) flags.

    "fail" when the claim breaks at some k >= claimed, "sharper" when
    the observed onset comes before claimed, else "pass".
    """
    failed = [k for k, good in flags if k >= claimed and not good]
    onset = _observed_onset(flags)
    status = "fail" if failed else ("sharper" if onset is not None and onset < claimed else "pass")
    return RangeCheck(
        check_id=check_id, description=description, status=status,
        claimed_onset=claimed, observed_onset=onset,
        detail={"failing_k": failed} if failed else None,
    )


def verify_vanishing_ranges(m, k_max, jobs=1):
    """Check the expected extremal vanishing behaviour of CP^m.

    Takes m, as hilbert_ray does.  Betti tables are computed from the
    full complex (where the degrees above the extremal edge actually
    exist) and cross-checked against the reduced complex degree by
    degree (the comparison consistency_report makes).
    Vanishing claims come with a claimed onset; the report records the
    onset actually observed in the window and marks the check
    "sharper" when vanishing starts earlier than claimed, "fail" when a
    claimed-zero value is nonzero.
    Each k is one task that builds its full and then its reduced
    complex in one process, and reads structural facts off the
    reduced one; the report keeps those of k_max.
    """
    G = build_generators(make_cpm(m))
    _check_int(k_max, "k", 0)
    if k_max < 8:
        raise ValueError("k_max must be at least 8 to exercise the claimed onsets")
    ks = list(range(2, k_max + 1))
    results = _betti_dims_range(G, ks, jobs)
    dims_by_k = {k: full for k, (full, _, _) in results.items()}
    edge = {k: _edge(G, k) for k in ks}
    checks = []

    mismatches = [[k, results[k][1]] for k in ks if results[k][1] is not None]
    checks.append(RangeCheck(
        check_id="table-consistency",
        description="full and reduced Betti tables agree for k = 2..%d" % k_max,
        status="pass" if not mismatches else "fail",
        observed_onset=None,
        detail={"mismatches": mismatches} if mismatches else None,
    ))

    if m >= 2:
        for i in (1, 2, 3):
            flags = [(k, dims_by_k[k].get(edge[k] + i, 0) == 0) for k in ks]
            checks.append(_vanishing_check(
                "vanishing-offset-%d" % i,
                "dim H^{k(2m-2)+%d}(C_k(CP^%d)) = 0" % (i, m), flags, claimed=8))

    flags = [(k, all(d == 0 for deg, d in dims_by_k[k].items() if deg >= edge[k] + 4))
             for k in ks]
    checks.append(_vanishing_check(
        "vanishing-offset-ge4",
        "dim H^{k(2m-2)+i}(C_k(CP^%d)) = 0 for every i >= 4" % m, flags, claimed=4))

    if m >= 2:
        checks.extend(results[k_max][2])

    i0 = tuple((k, dims_by_k[k].get(edge[k], 0)) for k in ks)
    return RangeReport(m=m, k_max=k_max, checks=tuple(checks), i0_samples=i0)


def _structural_facts(record, G, k):
    """Rank facts about the reduced complex near its top, at one k."""
    basis, _, ranks, _ = record
    e = _edge(G, k)
    dim_23 = [len(basis.slice(e + 2, 2)), len(basis.slice(e + 3, 1))]
    r, r1, r2 = (ranks.get(s, 0) for s in ((e + 2, 2), (e + 1, 1), (e, 2)))
    n1 = len(basis.slice(e + 1, 1))
    ker = n1 - r1 if n1 else None
    facts = (
        ("top-pair-exact", "two-term subcomplex at degrees +2, +3 is exact",
         dim_23 == [1, 1] and r == 1, {"dims": dim_23, "rank": r}),
        ("weight1-block", "block out of (degree +1, weight 1): rank 1, kernel 2",
         r1 == 1 and ker == 2, {"rank": r1, "kernel": ker}),
        ("weight2-block", "block out of (degree +0, weight 2): rank 2",
         r2 == 2, {"rank": r2}),
    )
    return [RangeCheck(check_id=check_id, description="%s (k=%d)" % (text, k),
                       status="pass" if ok else "fail", detail=dict(detail, k=k))
            for check_id, text, ok, detail in facts]
