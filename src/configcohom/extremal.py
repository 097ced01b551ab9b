"""Extremal Hilbert functions of configuration spaces of CP^m.

The top of the complex for C_k(CP^m) sits near degree k(2m-2); the
interesting story is the "ray" k -> dim H^{k(2m-2)+i} for a fixed
offset i.  This module samples those rays, fits exact quasi-polynomial
certificates to the tails, and packages the verification of the
expected vanishing behaviour into a report:

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

from .cecomplex import build_generators
from .homology import _build, _first_mismatch
from .linalg import kernel_dim
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


class QuasiPolynomial(namedtuple("QuasiPolynomial", "period onset degree coefficients")):
    """Certificate: for k >= onset, f(k) = P_{k mod period}(k).

    coefficients[r] lists the coefficients (Fractions) of the class-r
    polynomial in ascending powers of k (so the polynomials are in k
    itself, not in the class index).  degree is the largest actual
    degree over the classes; the certificate is minimal in
    lexicographic (period, onset, degree) order among those the
    samples support.
    """
    __slots__ = ()

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
    """Worker: Betti dims of C_k(CP^m) per mode.  Top-level so it pickles.

    args is (G, k, modes, facts), G the generator set of CP^m.
    Returns (k, (dims, facts)): dims holds one table per mode, in the
    order of modes; facts holds the structural facts read off this
    task's reduced build when asked for, else None.
    """
    G, k, modes, facts = args
    records = {mode: _build(G, k, mode) for mode in modes}
    dims = tuple(record.table.dims for record in records.values())
    return k, (dims, _structural_facts(records["reduced"], G, k) if facts else None)


def worker_count(jobs, n_tasks):
    """Processes for n_tasks tasks: at most jobs (an int >= 1), tasks and the
    CPUs this process may run on (all of the host's where the platform cannot tell)."""
    _check_int(jobs, "jobs", 1)
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return max(1, min(jobs, n_tasks, cpus or 1))


def _betti_dims_range(G, ks, modes, jobs, facts=False):
    """_dims_for_k over a list of k, optionally fanned out to processes.

    One task per k carries G and computes every mode in one process;
    with facts, the task at the largest k also returns the structural
    facts.  Workers take the largest k first, and results are keyed by
    k, so the outcome is byte-identical for any job count.
    """
    tasks = [(G, k, modes, facts and k == max(ks)) for k in ks]
    workers = worker_count(jobs, len(tasks))
    if workers == 1:
        return dict(_dims_for_k(t) for t in tasks)
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=workers) as pool:
        return dict(pool.map(_dims_for_k, tasks[::-1]))


def hilbert_ray(m, i, k_min, k_max, jobs=1):
    """Sample the offset-i extremal ray of CP^m over k_min..k_max.

    Takes m, the ring it computes on: every task reads the one
    generator set of CP^m built here, which also fixes the edge
    k(2m-2).  It reads the reduced complex, which is the full one below
    k = 2, so any k >= 0 works.
    """
    G = build_generators(make_cpm(m))
    _check_int(i, "offset i", 0)
    _check_int(k_min, "k", 0)
    _check_int(k_max, "k", 0)
    if k_min > k_max:
        raise ValueError("empty k range")
    ks = list(range(k_min, k_max + 1))
    results = _betti_dims_range(G, ks, ("reduced",), jobs)
    samples = tuple((k, dims.get(_edge(G, k) + i, 0))
                    for k, ((dims,), _) in sorted(results.items()))
    return HilbertRay(m=m, i=i, samples=samples)


def _fits(values, degree):
    """Do the (degree+1)-th finite differences of values vanish?

    Valid only with at least degree+2 values (an arithmetic
    progression in k is fine: the step size cancels).
    """
    if len(values) < degree + 2:
        raise ValueError("need at least degree+2 values")
    diffs = list(values)
    for _ in range(degree + 1):
        diffs = [b - a for a, b in zip(diffs, diffs[1:])]
    return all(v == 0 for v in diffs)


def _interpolate(points, degree):
    """Coefficients (ascending) of the degree-<= polynomial through points.

    Lagrange interpolation over the first degree+1 points, exact.
    """
    coeffs = [Fraction(0)] * (degree + 1)
    pts = points[: degree + 1]
    for idx, (xi, yi) in enumerate(pts):
        basis = [Fraction(1)]
        denom = Fraction(1)
        for jdx, (xj, _) in enumerate(pts):
            if jdx == idx:
                continue
            nxt = [Fraction(0)] * (len(basis) + 1)
            for p, c in enumerate(basis):
                nxt[p] += c * (-xj)
                nxt[p + 1] += c
            basis = nxt
            denom *= xi - xj
        scale = Fraction(yi) / denom
        for p, c in enumerate(basis):
            coeffs[p] += scale * c
    return coeffs


def detect_quasi_polynomial(samples, p_max=6, deg_max=4):
    """Minimal quasi-polynomial certificate for a sampled tail.

    samples is a sequence of (k, value) at consecutive k.  Candidates
    (period p, onset N, degree bound D) are scanned in lexicographic
    order; a candidate is certifiable when every residue class mod p
    has at least D+2 samples at k >= N, and it fits when the (D+1)-th
    finite differences vanish along every class.  The first fitting
    candidate is returned with exactly interpolated coefficients.

    Returns None when certifiable candidates exist but none fits;
    raises UnderDeterminedError when the sample window is too short to
    certify anything at all.
    """
    samples = sorted(samples)
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
            class_points = {}
            for r in range(p):
                pts = [(k, Fraction(by_k[k]))
                       for k in range(onset, k_hi + 1) if k % p == r]
                class_points[r] = pts
            max_deg = min(len(pts) for pts in class_points.values()) - 2
            if max_deg < 0:
                continue
            for degree in range(0, min(deg_max, max_deg) + 1):
                any_certifiable = True
                if all(_fits([y for _, y in class_points[r]], degree)
                       for r in range(p)):
                    coefficients = []
                    actual = 0
                    for r in range(p):
                        coeffs = _interpolate(class_points[r], degree)
                        while len(coeffs) > 1 and coeffs[-1] == 0:
                            coeffs.pop()
                        actual = max(actual, len(coeffs) - 1)
                        coefficients.append(tuple(coeffs))
                    return QuasiPolynomial(
                        period=p, onset=onset, degree=actual,
                        coefficients=tuple(coefficients))
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
    complex in one process; the task at k_max reads the structural
    facts off its own reduced build, so nothing is built twice.
    """
    G = build_generators(make_cpm(m))
    _check_int(k_max, "k", 0)
    if k_max < 8:
        raise ValueError("k_max must be at least 8 to exercise the claimed onsets")
    ks = list(range(2, k_max + 1))
    results = _betti_dims_range(G, ks, ("full", "reduced"), jobs, facts=m >= 2)
    dims_by_k = {k: full for k, ((full, _), _) in results.items()}
    edge = {k: _edge(G, k) for k in ks}
    checks = []

    first = {k: _first_mismatch(*results[k][0]) for k in ks}
    mismatches = [[k, first[k]] for k in ks if first[k] is not None]
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
        checks.extend(results[k_max][1])

    i0 = tuple((k, dims_by_k[k].get(edge[k], 0)) for k in ks)
    return RangeReport(m=m, k_max=k_max, checks=tuple(checks), i0_samples=i0)


def _structural_facts(record, G, k):
    """Rank facts about the reduced complex near its top, at one k."""
    basis, blocks, ranks, _ = record
    e = _edge(G, k)
    out = []

    dim_23 = (len(basis.slice(e + 2, 2)), len(basis.slice(e + 3, 1)))
    r = ranks.get((e + 2, 2), 0)
    exact = dim_23 == (1, 1) and r == 1
    out.append(RangeCheck(
        check_id="top-pair-exact",
        description="two-term subcomplex at degrees +2, +3 is exact (k=%d)" % k,
        status="pass" if exact else "fail",
        detail={"k": k, "dims": list(dim_23), "rank": r},
    ))

    b1 = blocks.get((e + 1, 1))
    r1 = ranks.get((e + 1, 1), 0)
    ker = kernel_dim(b1.matrix) if b1 is not None else None
    ok1 = b1 is not None and r1 == 1 and ker == 2
    out.append(RangeCheck(
        check_id="weight1-block",
        description="block out of (degree +1, weight 1): rank 1, kernel 2 (k=%d)" % k,
        status="pass" if ok1 else "fail",
        detail={"k": k, "rank": r1, "kernel": ker},
    ))

    r2 = ranks.get((e, 2), 0)
    ok2 = r2 == 2
    out.append(RangeCheck(
        check_id="weight2-block",
        description="block out of (degree +0, weight 2): rank 2 (k=%d)" % k,
        status="pass" if ok2 else "fail",
        detail={"k": k, "rank": r2},
    ))
    return out
