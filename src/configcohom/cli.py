"""Command-line front end.

Four subcommands:

    betti       Betti table of C_k(M) for one k
    ray         extremal Hilbert-function samples plus certificate
    verify      extremal vanishing report for CP^m
    ring-check  validate a ring presentation JSON file

Each run imports only what its subcommand runs: the extremal module is
imported by ray and verify alone, and the process pool only where one
is started, so a betti or ring-check run skips both.  Only verify fans
out, behind --jobs; ray builds, one k after the other, just the degree
window of each k's reduced complex that its sample reads.

Exit codes: 0 success, 1 a verified claim failed, 2 input error
(ring-check's verdict on an invalid ring, too), 3 cap exceeded (by
the complex's monomials or the ring check's n^3 triples), 4 internal
error (any RuntimeError: a failed consistency check inside the
engine, or a worker process that died).  run() alone maps a failure
to its code and its one stderr line.  Output is deterministic
byte-for-byte for a given configuration, independent of verify's --jobs.
"""

import argparse
import json
import sys
from itertools import accumulate

from .cecomplex import weight_counts
from .homology import betti, consistency_report
from .ring import RingSchemaError, _check_int, load_ring, make_cpm, validate_ring

DEFAULT_MAX_MONOMIALS = 2_000_000


class _CapExceeded(Exception):
    """The complex or the ring check asked for passes --max-monomials."""


def _int_at_least(least):
    """argparse type: an int of at least least, by the library's integer rule."""
    def integer(text):
        n = int(text)  # argparse reports a ValueError as "invalid integer value"
        try:
            _check_int(n, "the value", least)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc))
        return n
    return integer


def build_parser():
    top = argparse.ArgumentParser(
        prog="configcohom",
        description="Exact cohomology of unordered configuration spaces.")
    sub = top.add_subparsers(dest="command", required=True)

    def common(p, formats=("text", "csv", "json")):
        p.add_argument("--format", choices=formats, default="text", dest="fmt")
        p.add_argument("--output", metavar="FILE", help="write to FILE instead of stdout")
        p.add_argument("--max-monomials", type=_int_at_least(0),
                       default=DEFAULT_MAX_MONOMIALS,
                       help="refuse complexes, and rings of n^3 basis triples, "
                            "larger than this (default %d)" % DEFAULT_MAX_MONOMIALS)

    p = sub.add_parser("betti", help="Betti table of C_k(M)")
    p.set_defaults(runner=_run_betti)
    common(p)
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--cpm", type=int, metavar="M", help="use the built-in CP^M ring")
    g.add_argument("--ring", metavar="FILE", dest="ring_path",
                   help="load a ring presentation JSON file")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--mode", choices=("full", "reduced", "both"), default="full")
    p.add_argument("--degrees", choices=("cohomological", "homological"),
                   default="cohomological", dest="indexing")

    p = sub.add_parser("ray", help="extremal Hilbert-function ray of CP^m")
    p.set_defaults(runner=_run_ray)
    common(p)
    p.add_argument("--cpm", type=int, metavar="M", required=True)
    p.add_argument("--i", type=int, required=True, metavar="OFFSET")
    p.add_argument("--k-min", type=int, default=2)
    p.add_argument("--k-max", type=int, required=True)
    p.add_argument("--p-max", type=_int_at_least(1), default=6)
    p.add_argument("--deg-max", type=_int_at_least(0), default=4)

    p = sub.add_parser("verify", help="extremal vanishing report for CP^m")
    p.set_defaults(runner=_run_verify)
    common(p, formats=("text", "json"))
    p.add_argument("--cpm", type=int, metavar="M", required=True)
    p.add_argument("--k-max", type=int, required=True)
    p.add_argument("--jobs", type=_int_at_least(1), default=1,
                   help="worker processes (default 1)")

    p = sub.add_parser("ring-check", help="validate a ring presentation file")
    p.set_defaults(runner=_run_ring_check, cpm=None)
    p.add_argument("--ring", metavar="FILE", required=True, dest="ring_path")
    common(p, formats=("text", "json"))

    return top


def _emit(cfg, text):
    if cfg.output:
        with open(cfg.output, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _json_text(obj):
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _ring(cfg, k=None, mode="full"):
    """The ring asked for, once its check (and its complex, given k) fit in --max-monomials.

    validate_ring visits all n^3 triples of basis classes, so a ring
    with more triples than the cap is refused before it is validated,
    and a built-in CP^m before it is even built ((m + 1)^2 products).
    The complex of k points in this mode is then counted from the
    degrees, also before validation, and weight by weight, so a huge k
    is refused at once.
    """
    cap = cfg.max_monomials
    if cfg.cpm is None:
        R = load_ring(cfg.ring_path)
        n, label = R.n, R.label
    else:
        n, label = cfg.cpm + 1, "CP^%d" % cfg.cpm
    if n ** 3 > cap:
        raise _CapExceeded("ring %s has %d basis triples to check, more than the cap "
                           "of %d (raise --max-monomials to proceed)" % (label, n ** 3, cap))
    R = R if cfg.cpm is None else make_cpm(cfg.cpm)
    if k is not None and any(total > cap for total in accumulate(weight_counts(R, k, mode))):
        raise _CapExceeded("complex for k=%d exceeds the cap: more than %d "
                           "monomials (raise --max-monomials to proceed)" % (k, cap))
    return R


def _betti_text(table, indexing="cohomological"):
    """Render a Betti table; indexing only changes the H^i/H_i label."""
    head = "Betti numbers of C_%d(%s), %s complex" % (table.k, table.ring, table.mode)
    sym = "H_%d" if indexing == "homological" else "H^%d"
    lines = [head] + ["%s = %d" % (sym % i, table.dims[i]) for i in sorted(table.dims)]
    lines.append("Euler characteristic: %d" % table.euler)
    return "\n".join(lines) + "\n"


def _betti_csv(table):
    return "".join(["degree,dim\n"] + ["%d,%d\n" % (i, table.dims[i]) for i in sorted(table.dims)])


def _run_betti(cfg):
    R = _ring(cfg, cfg.k, "full" if cfg.mode == "both" else cfg.mode)
    if cfg.mode == "both":
        report = consistency_report(R, cfg.k)
        if cfg.fmt == "json":
            doc = {
                "full": report.full.to_json_dict(cfg.indexing),
                "reduced": report.reduced.to_json_dict(cfg.indexing),
                "consistent": report.ok,
                "first_mismatch": report.first_mismatch,
            }
            _emit(cfg, _json_text(doc))
        elif cfg.fmt == "csv":
            # tables agree when consistent; emit the full one
            _emit(cfg, _betti_csv(report.full))
        else:
            text = (_betti_text(report.full, cfg.indexing)
                    + _betti_text(report.reduced, cfg.indexing))
            text += ("consistent: yes\n" if report.ok
                     else "consistent: NO (first mismatch in degree %s)\n"
                     % report.first_mismatch)
            _emit(cfg, text)
        if not report.ok:
            sys.stderr.write("full and reduced tables disagree at degree %s\n"
                             % report.first_mismatch)
            return 1
        return 0
    table = betti(R, cfg.k, cfg.mode)
    if cfg.fmt == "json":
        _emit(cfg, _json_text(table.to_json_dict(cfg.indexing)))
    elif cfg.fmt == "csv":
        _emit(cfg, _betti_csv(table))
    else:
        _emit(cfg, _betti_text(table, cfg.indexing))
    return 0


def _run_ray(cfg):
    from .extremal import detect_quasi_polynomial, hilbert_ray

    # each k enumerates only its window, yet the cap counts the whole reduced complex at
    # k_max: in closed form, so a huge --k-max is refused at once, and it bounds the O(k)
    # per-length part tables too, which a count of the window alone would not
    _ring(cfg, cfg.k_max, "reduced")
    ray = hilbert_ray(cfg.cpm, cfg.i, cfg.k_min, cfg.k_max)
    cert = detect_quasi_polynomial(ray.samples, p_max=cfg.p_max, deg_max=cfg.deg_max)
    if cfg.fmt == "json":
        doc = {
            "ring": "CP^%d" % ray.m,
            "offset": ray.i,
            "mode": "reduced",
            "samples": [list(s) for s in ray.samples],
            "certificate": cert.to_json_dict() if cert is not None else None,
        }
        _emit(cfg, _json_text(doc))
        return 0
    if cert is None:
        cert_line = ("certificate: none within period <= %d, degree <= %d"
                     % (cfg.p_max, cfg.deg_max))
    else:
        classes = "; ".join(
            "class %d: %s" % (r, ", ".join(map(str, coeffs)))
            for r, coeffs in enumerate(cert.coefficients))
        cert_line = ("certificate: period %d, onset %d, degree %d; %s"
                     % (cert.period, cert.onset, cert.degree, classes))
    if cfg.fmt == "csv":
        lines = ["k,dim"] + ["%d,%d" % s for s in ray.samples]
        _emit(cfg, "\n".join(lines) + "\n")
        sys.stderr.write(cert_line + "\n")
        return 0
    lines = ["extremal ray: CP^%d, offset %d, reduced complex, k = %d..%d"
             % (ray.m, ray.i, cfg.k_min, cfg.k_max)]
    lines += ["k=%d: %d" % s for s in ray.samples]
    lines.append(cert_line)
    _emit(cfg, "\n".join(lines) + "\n")
    return 0


def _run_verify(cfg):
    from .extremal import verify_vanishing_ranges

    _ring(cfg, cfg.k_max)
    report = verify_vanishing_ranges(cfg.cpm, cfg.k_max, jobs=cfg.jobs)
    if cfg.fmt == "json":
        _emit(cfg, _json_text(report.to_json_dict()))
    else:
        _emit(cfg, report.to_text() + "\n")
    return 0 if report.ok else 1


def _run_ring_check(cfg):
    R = _ring(cfg)
    diag = validate_ring(R)
    if cfg.fmt == "json":
        doc = {"valid": diag.valid,
               "violations": [[rule, msg] for rule, msg in diag.violations]}
        _emit(cfg, _json_text(doc))
    else:
        lines = ["ring %s: %s" % (R.label, "valid" if diag.valid else "INVALID")]
        lines += ["  [%s] %s" % v for v in diag.violations]
        _emit(cfg, "\n".join(lines) + "\n")
    return 0 if diag.valid else 2


def run(cfg):
    """Execute a parsed configuration; returns the process exit code."""
    try:
        return cfg.runner(cfg)
    except RingSchemaError as exc:
        # before ValueError, of which it is one
        sys.stderr.write("malformed ring presentation: %s\n" % exc)
        return 2
    except _CapExceeded as exc:
        sys.stderr.write("%s\n" % exc)
        return 3
    except (OSError, ValueError) as exc:
        # InvalidRingError and extremal's UnderDeterminedError are ValueErrors
        sys.stderr.write("error: %s\n" % exc)
        return 2
    except RuntimeError as exc:
        # AssemblyError and BrokenProcessPool are RuntimeErrors
        sys.stderr.write("internal error: %s: %s\n" % (type(exc).__name__, exc))
        return 4


def main(argv=None):
    return run(build_parser().parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())
