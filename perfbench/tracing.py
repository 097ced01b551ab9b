"""In-process traced replay of the benchmark workloads.

Each workload is replayed through the public functions of the
configcohom modules, on a freshly built ring, with a span around every
call into a layer.  Spans are kept in memory and written out when the
run ends.  A layer's time is the sum of its spans' self times: span
duration minus the part covered by child spans.

The replay of one workload is one traced op.  Next to the staged
pipeline it runs the untraced library call (`betti`) on another fresh
ring; the staged sum minus that time is the tracing overhead.
"""

import hashlib
import json
import resource
import time
from contextlib import contextmanager

from configcohom import (assemble_blocks, betti, build_generators,
                         enumerate_basis, kernel_dim, load_ring, make_cpm,
                         rank, reduce_complex, validate_ring,
                         verify_vanishing_ranges)
from configcohom.homology import complex_data


class BenchError(RuntimeError):
    """A traced op produced a wrong result or broke an invariant."""


class Tracer:
    """Span recorder: name, start, end, parent span id and op id."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self.op = None

    @contextmanager
    def span(self, name):
        rec = {"id": len(self.spans), "name": name, "op": self.op,
               "parent": self._stack[-1] if self._stack else None,
               "start": time.perf_counter(), "end": None}
        self.spans.append(rec)
        self._stack.append(rec["id"])
        try:
            yield
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    def self_times(self, op):
        """Layer name -> summed self time over the spans of one op."""
        spans = [s for s in self.spans if s["op"] == op]
        covered = {}
        for s in spans:
            if s["parent"] is not None:
                covered[s["parent"]] = (covered.get(s["parent"], 0.0)
                                        + s["end"] - s["start"])
        out = {}
        for s in spans:
            own = s["end"] - s["start"] - covered.get(s["id"], 0.0)
            out[s["name"]] = out.get(s["name"], 0.0) + own
        return out

    def durations(self, op, name):
        return [s["end"] - s["start"] for s in self.spans
                if s["op"] == op and s["name"] == name]

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.spans, fh)


# Layer spans whose sum is the staged counterpart of one untraced
# betti() call: betti builds the generator set (validating the ring on
# the way) and runs the same basis, block, d o d and rank steps.
STAGED = ("generators.build", "cecomplex.enumerate", "cecomplex.reduce",
          "cecomplex.assemble", "linalg.dd", "linalg.rank")


def fresh_ring(spec):
    """A new RingPresentation with no cached generator set."""
    if spec["ring"] == "cpm":
        return make_cpm.__wrapped__(spec["m"])
    return load_ring(spec["path"])


def _new_counts():
    return {"monomials": 0, "reduced_monomials": 0, "blocks": 0, "nnz": 0,
            "largest": (0, 0, 0), "dd_products": 0, "rank_calls": 0,
            "rank_sum": 0, "rank_min_sum": 0}


def _block_size(shape):
    """Order blocks by entry count rows x cols, then by nnz."""
    rows, cols, nnz = shape
    return (rows * cols, nnz)


def staged_dims(tr, spec, k, mode, counts):
    """Betti dims of one (k, mode), one public call per span."""
    with tr.span("ring.load"):
        R = fresh_ring(spec)
    if getattr(R, "_generator_set", None) is not None:
        raise BenchError("traced op started from a ring with a generator set")
    with tr.span("ring.validate"):
        diag = validate_ring(R)
    if not diag.valid:
        raise BenchError("ring does not validate: %s" % "; ".join(diag.messages()))
    with tr.span("generators.build"):
        G = build_generators(R)
    with tr.span("cecomplex.enumerate"):
        basis = enumerate_basis(G, k)
    counts["monomials"] += basis.total_dimension()
    if mode == "reduced":
        with tr.span("cecomplex.reduce"):
            basis = reduce_complex(G, basis)
        counts["reduced_monomials"] += basis.total_dimension()
    with tr.span("cecomplex.assemble"):
        blocks = {b.source: b for b in assemble_blocks(G, basis)}
    for b in blocks.values():
        shape = (b.matrix.n_rows, b.matrix.n_cols, b.matrix.nnz)
        counts["blocks"] += 1
        counts["nnz"] += shape[2]
        if _block_size(shape) > _block_size(counts["largest"]):
            counts["largest"] = shape
    with tr.span("linalg.dd"):
        for b in blocks.values():
            nxt = blocks.get(b.target)
            if nxt is None:
                continue
            counts["dd_products"] += 1
            if not (nxt.matrix @ b.matrix).is_zero():
                raise BenchError("d o d != 0 out of slice %r (k=%d, %s)"
                                 % (b.source, k, mode))
    ranks = {}
    for src in sorted(blocks):
        m = blocks[src].matrix
        with tr.span("linalg.rank"):
            ranks[src] = rank(m)
        counts["rank_calls"] += 1
        counts["rank_sum"] += ranks[src]
        counts["rank_min_sum"] += min(m.n_rows, m.n_cols)
    dims = {}
    for (i, w), mons in basis.slices.items():
        part = len(mons) - ranks.get((i, w), 0) - ranks.get((i - 1, w + 1), 0)
        if part < 0:
            raise BenchError("negative slice contribution at %r" % ((i, w),))
        dims[i] = dims.get(i, 0) + part
    top = max((i for i, _ in basis.slices), default=0)
    return {i: dims.get(i, 0) for i in range(top + 1)}, R.label


def untraced_dims(tr, spec, k, mode):
    """The library's own betti() on a fresh ring, in one span."""
    R = fresh_ring(spec)
    with tr.span("homology.betti"):
        table = betti(R, k, mode)
    return table.dims


def _json_digest(doc):
    """sha256 of a document rendered the way the CLI renders JSON."""
    text = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _betti_doc(label, k, mode, dims):
    euler = sum(d if i % 2 == 0 else -d for i, d in dims.items())
    return {"ring": label, "k": k, "mode": mode,
            "degree_indexing": "cohomological",
            "dims": [[i, dims[i]] for i in sorted(dims)], "euler": euler}


def replay_betti(tr, spec, expected):
    """One traced `betti --format json` op; returns its counts."""
    counts = _new_counts()
    k = spec["k"]
    dims, label = staged_dims(tr, spec, k, "full", counts)
    if _json_digest(_betti_doc(label, k, "full", dims)) != expected["digest"]:
        raise BenchError("staged Betti table differs from the CLI output")
    if untraced_dims(tr, spec, k, "full") != dims:
        raise BenchError("staged and untraced Betti tables differ")
    return counts


def replay_verify(tr, spec, expected):
    """One traced `verify --format json` op; returns its counts.

    Every (k, mode) task of the report is staged on a fresh ring, then
    the structural recompute that the parent does at k_max under
    --jobs > 1 is timed, then the real verify_vanishing_ranges runs with
    spec["fanout_jobs"] worker processes.
    """
    counts = _new_counts()
    m, k_max, jobs = spec["m"], spec["k"], spec["fanout_jobs"]
    tasks = [(k, mode) for mode in ("full", "reduced")
             for k in range(2, k_max + 1)]
    for k, mode in tasks:
        with tr.span("extremal.task"):
            dims, _ = staged_dims(tr, spec, k, mode, counts)
        if untraced_dims(tr, spec, k, mode) != dims:
            raise BenchError("staged and untraced tables differ (k=%d, %s)"
                             % (k, mode))
    counts["tasks"] = len(tasks)

    R = fresh_ring(spec)
    with tr.span("extremal.structural"):
        _, blocks, _ = complex_data(R, k_max, "reduced")
        ker = kernel_dim(blocks[(k_max * (2 * m - 2) + 1, 1)].matrix)
    if ker != 2:
        raise BenchError("weight-1 block kernel is %d, expected 2" % ker)

    make_cpm.cache_clear()
    cpu0 = tree_cpu()
    with tr.span("cli.fanout"):
        report = verify_vanishing_ranges(m, k_max, jobs=jobs)
    counts["fanout_cpu_s"] = tree_cpu() - cpu0
    make_cpm.cache_clear()
    if not report.ok or _json_digest(report.to_json_dict()) != expected["digest"]:
        raise BenchError("in-process verify report differs from the CLI output")
    return counts


def tree_cpu():
    """CPU seconds of this process plus every child it has reaped."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        ru = resource.getrusage(who)
        total += ru.ru_utime + ru.ru_stime
    return total


def layer_metrics(tr, op, counts):
    """Per-layer metrics of one traced op, keyed without the workload."""
    own = tr.self_times(op)
    rank_spans = tr.durations(op, "linalg.rank")
    betti_spans = tr.durations(op, "homology.betti")
    staged = sum(sum(tr.durations(op, name)) for name in STAGED)
    out = {
        "ring.load_s": own["ring.load"],
        "ring.validate_s": own["ring.validate"],
        "generators.build_s": own["generators.build"],
        "cecomplex.enumerate_s": own["cecomplex.enumerate"],
        "cecomplex.assemble_s": own["cecomplex.assemble"],
        "cecomplex.monomials": counts["monomials"],
        "cecomplex.nnz": counts["nnz"],
        "cecomplex.blocks": counts["blocks"],
        "cecomplex.largest_rows": counts["largest"][0],
        "cecomplex.largest_cols": counts["largest"][1],
        "cecomplex.largest_nnz": counts["largest"][2],
        "linalg.dd_s": own["linalg.dd"],
        "linalg.dd_products": counts["dd_products"],
        "linalg.rank_s": sum(rank_spans),
        "linalg.rank_calls": counts["rank_calls"],
        "linalg.rank_max_s": max(rank_spans),
        "linalg.rank_yield": counts["rank_sum"] / counts["rank_min_sum"],
        "homology.betti_s": sum(betti_spans),
        "trace.overhead_s": staged - sum(betti_spans),
    }
    if "tasks" in counts:
        serial = sum(betti_spans)
        structural = own["extremal.structural"]
        out.update({
            "cecomplex.reduce_s": own["cecomplex.reduce"],
            "cecomplex.reduced_monomials": counts["reduced_monomials"],
            "extremal.tasks": counts["tasks"],
            "extremal.serial_s": serial,
            "extremal.max_task_s": max(betti_spans),
            "extremal.structural_s": structural,
            "cli.fanout_wall_s": own["cli.fanout"],
            "cli.fanout_cpu_ratio": counts["fanout_cpu_s"] / (serial + structural),
        })
    return out


def exact_counts(counts):
    """The deterministic counts that must repeat exactly on every run."""
    out = {k: counts[k] for k in ("monomials", "reduced_monomials", "blocks",
                                  "nnz", "dd_products", "rank_calls",
                                  "rank_sum", "rank_min_sum")}
    out["largest"] = list(counts["largest"])
    if "tasks" in counts:
        out["tasks"] = counts["tasks"]
    return out
