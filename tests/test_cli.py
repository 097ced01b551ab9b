import json
import os
import re
import subprocess
import sys
import time
from concurrent.futures.process import BrokenProcessPool

import pytest

import configcohom
from configcohom import build_generators, extremal, homology, make_cpm
from configcohom.cecomplex import AssemblyError
from configcohom.cli import build_parser, main
from oracles import (cp2_ring_doc, malformed_ring_docs, torus_ring,
                     unreadable_ring_files)


def run(capsys, *argv):
    rc = main(list(argv))
    out = capsys.readouterr()
    return rc, out.out, out.err


def test_betti_csv(capsys):
    rc, out, _ = run(capsys, "betti", "--cpm", "1", "--k", "3", "--format", "csv")
    assert rc == 0
    assert out == "degree,dim\n0,1\n1,0\n2,0\n3,1\n4,0\n5,0\n6,0\n"


def test_betti_json_and_indexing(capsys):
    rc, out, _ = run(capsys, "betti", "--cpm", "2", "--k", "2",
                     "--format", "json", "--degrees", "homological")
    assert rc == 0
    doc = json.loads(out)
    assert doc["degree_indexing"] == "homological"
    assert doc["dims"][0] == [0, 1]
    assert doc["euler"] == sum(d * (1 if i % 2 == 0 else -1)
                               for i, d in doc["dims"])


def test_betti_text(capsys):
    rc, out, _ = run(capsys, "betti", "--cpm", "1", "--k", "2")
    assert rc == 0
    assert out.startswith("Betti numbers of C_2(CP^1), full complex\n")
    assert "H^0 = 1" in out and "Euler characteristic: 1" in out


def test_betti_both_mode(capsys):
    rc, out, _ = run(capsys, "betti", "--cpm", "2", "--k", "5", "--mode", "both")
    assert rc == 0
    assert "consistent: yes" in out


def test_betti_custom_ring_reduced_mode(tmp_path, capsys):
    # the reduction holds for every ring, so a ring file runs in reduced
    # mode and gives the built-in ring's table
    path = tmp_path / "cp2.json"
    path.write_text(json.dumps(cp2_ring_doc()))
    rc, out, _ = run(capsys, "betti", "--ring", str(path), "--k", "3",
                     "--mode", "reduced", "--format", "csv")
    assert rc == 0
    rc2, out2, _ = run(capsys, "betti", "--cpm", "2", "--k", "3",
                       "--mode", "reduced", "--format", "csv")
    assert rc2 == 0 and out == out2


def test_betti_torus_file_both_modes(tmp_path, capsys):
    path = tmp_path / "torus.json"
    path.write_text(json.dumps(torus_ring().to_dict()))
    rc, out, _ = run(capsys, "betti", "--ring", str(path), "--k", "6", "--mode", "both")
    assert rc == 0
    assert out.endswith("consistent: yes\n")


def test_betti_reduced_ring_without_unit_exits_two(tmp_path, capsys):
    # the cap counts a ring with two degree-0 classes in full; validation
    # then refuses it
    doc = cp2_ring_doc()
    doc["basis"].append({"name": "u", "degree": 0})
    path = tmp_path / "two_units.json"
    path.write_text(json.dumps(doc))
    rc, _, err = run(capsys, "betti", "--ring", str(path), "--k", "3",
                     "--mode", "reduced")
    assert rc == 2
    assert "expected exactly one degree-0 class" in err


def test_betti_custom_ring_full_mode(tmp_path, capsys):
    path = tmp_path / "cp2.json"
    path.write_text(json.dumps(cp2_ring_doc()))
    rc, out, _ = run(capsys, "betti", "--ring", str(path), "--k", "2",
                     "--format", "csv")
    assert rc == 0
    # a custom presentation of the same ring gives the same table
    rc2, out2, _ = run(capsys, "betti", "--cpm", "2", "--k", "2",
                       "--format", "csv")
    assert out == out2


def test_monomial_cap(capsys):
    rc, _, err = run(capsys, "betti", "--cpm", "3", "--k", "30",
                     "--max-monomials", "100")
    assert rc == 3
    assert "cap" in err


def test_monomial_cap_stops_counting_early(capsys):
    # the count stops once it passes the cap, so a huge k is refused at once
    rc, _, err = run(capsys, "betti", "--cpm", "2", "--k", "1000000000")
    assert rc == 3
    assert "more than 2000000 monomials" in err


def test_monomial_cap_counts_the_complex_built(capsys):
    # CP^2, k = 6: 36 monomials reduced, 92 full; a cap of 50 lets the
    # reduced runs through and refuses the full ones
    cap = ("--max-monomials", "50")
    rc, out, _ = run(capsys, "betti", "--cpm", "2", "--k", "6", "--mode", "reduced", *cap)
    assert rc == 0 and "reduced complex" in out
    for mode in ("full", "both"):
        rc, _, err = run(capsys, "betti", "--cpm", "2", "--k", "6", "--mode", mode, *cap)
        assert rc == 3 and "more than 50 monomials" in err, mode
    rc, _, _ = run(capsys, "ray", "--cpm", "2", "--i", "1", "--k-max", "6", *cap)
    assert rc == 0
    rc, _, err = run(capsys, "ray", "--cpm", "2", "--i", "1", "--k-max", "6",
                     "--mode", "full", *cap)
    assert rc == 3 and "cap" in err
    rc, _, err = run(capsys, "verify", "--cpm", "2", "--k-max", "6", *cap)
    assert rc == 3 and "cap" in err


@pytest.mark.parametrize("argv", [
    ("betti", "--cpm", "300", "--k", "2"),
    ("verify", "--cpm", "300", "--k-max", "8"),
], ids=["betti", "verify"])
def test_cap_bounds_the_ring_check(argv):
    # CP^300 has 301^3 basis triples, more than the default cap: the run
    # is refused before the ring is built or validated
    src = os.path.dirname(os.path.dirname(configcohom.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    start = time.perf_counter()
    done = subprocess.run([sys.executable, "-m", "configcohom", *argv],
                          env=env, capture_output=True, text=True, timeout=60)
    elapsed = time.perf_counter() - start
    assert done.returncode == 3 and done.stdout == ""
    assert done.stderr == ("ring CP^300 has 27270901 basis triples to check, more than "
                           "the cap of 2000000 (raise --max-monomials to proceed)\n")
    assert elapsed < 1.0


def test_cap_on_ring_check_counts_triples(tmp_path, capsys):
    # CP^60 has 61^3 = 226,981 triples, within the default cap
    rc, out, _ = run(capsys, "betti", "--cpm", "60", "--k", "2")
    assert rc == 0 and out.startswith("Betti numbers of C_2(CP^60)")
    rc, _, err = run(capsys, "betti", "--cpm", "2", "--k", "2", "--max-monomials", "26")
    assert rc == 3 and "27 basis triples" in err
    # a ring file is refused on its triples before it is validated, and
    # an invalid one within the cap keeps its diagnostic
    doc = cp2_ring_doc()
    doc["products"] = [p for p in doc["products"]
                       if (p["left"], p["right"]) != ("x", "x")]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    rc, _, err = run(capsys, "betti", "--ring", str(bad), "--k", "3", "--max-monomials", "26")
    assert rc == 3 and err == ("ring %s has 27 basis triples to check, more than the "
                               "cap of 26 (raise --max-monomials to proceed)\n" % bad)
    rc, out, err = run(capsys, "betti", "--ring", str(bad), "--k", "3")
    assert rc == 2 and out == ""
    assert err == "error: Poincare pairing into x^2 is degenerate\n"


def test_ray_csv_certificate_on_stderr(capsys):
    rc, out, err = run(capsys, "ray", "--cpm", "2", "--i", "2",
                       "--k-max", "8", "--format", "csv")
    assert rc == 0
    lines = out.splitlines()
    assert lines[0] == "k,dim"
    assert len(lines) == 8  # k = 2..8
    assert "certificate" in err


def test_ray_json(capsys):
    rc, out, _ = run(capsys, "ray", "--cpm", "1", "--i", "3",
                     "--k-max", "10", "--format", "json")
    assert rc == 0
    doc = json.loads(out)
    assert doc["ring"] == "CP^1"
    cert = doc["certificate"]
    assert cert["period"] == 1 and cert["degree"] == 0
    assert cert["classes"] == [["1"]]
    assert doc["samples"][0] == [2, 0] and doc["samples"][-1] == [10, 1]


def test_ray_underdetermined(capsys):
    rc, _, err = run(capsys, "ray", "--cpm", "2", "--i", "1",
                     "--k-min", "7", "--k-max", "7")
    assert rc == 2
    assert "certify" in err


def test_verify_text(capsys):
    rc, out, _ = run(capsys, "verify", "--cpm", "2", "--k-max", "8")
    assert rc == 0
    assert out.splitlines()[0].startswith("extremal range verification: CP^2")
    assert "overall: pass" in out


def test_verify_rejects_csv(capsys):
    # verify has no CSV schema, so argparse refuses it before any ring is built
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--cpm", "2", "--k-max", "8", "--format", "csv"])
    assert exc.value.code == 2
    assert "csv" in capsys.readouterr().err


def test_ring_check_paths(tmp_path, capsys):
    good = tmp_path / "good.json"
    good.write_text(json.dumps(cp2_ring_doc()))
    rc, out, _ = run(capsys, "ring-check", "--ring", str(good))
    assert rc == 0 and "valid" in out

    doc = cp2_ring_doc()
    doc["products"] = [p for p in doc["products"]
                       if (p["left"], p["right"]) != ("x", "x")]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    rc, out, _ = run(capsys, "ring-check", "--ring", str(bad))
    assert rc == 2
    assert "pairing" in out

    ugly = tmp_path / "ugly.json"
    ugly.write_text("{")
    rc, _, err = run(capsys, "ring-check", "--ring", str(ugly))
    assert rc == 2
    assert "malformed" in err

    rc, _, err = run(capsys, "ring-check", "--ring", str(tmp_path / "nope.json"))
    assert rc == 2


@pytest.mark.parametrize("data, message", [
    pytest.param(json.dumps(doc).encode(), message, id=rule)
    for rule, doc, message in malformed_ring_docs()] + [
    pytest.param(data, message, id=fault) for fault, data, message in unreadable_ring_files()])
def test_malformed_ring_file_exits_two(tmp_path, capsys, data, message):
    path = tmp_path / "ring.json"
    path.write_bytes(data)
    for argv in (["ring-check"], ["betti", "--k", "3"]):
        rc, out, err = run(capsys, *argv, "--ring", str(path))
        assert rc == 2 and out == ""
        assert err.startswith("malformed ring presentation: ") and "Traceback" not in err
        assert re.search(message, err)


def test_ring_check_json_format(tmp_path, capsys):
    good = tmp_path / "good.json"
    good.write_text(json.dumps(cp2_ring_doc()))
    rc, out, _ = run(capsys, "ring-check", "--ring", str(good),
                     "--format", "json")
    assert rc == 0
    assert json.loads(out) == {"valid": True, "violations": []}


def test_output_file_and_jobs_determinism(tmp_path, capsys):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    rc1 = main(["ray", "--cpm", "2", "--i", "1", "--k-max", "9",
                "--format", "json", "--jobs", "1", "--output", str(a)])
    rc2 = main(["ray", "--cpm", "2", "--i", "1", "--k-max", "9",
                "--format", "json", "--jobs", "3", "--output", str(b)])
    capsys.readouterr()
    assert rc1 == rc2 == 0
    assert a.read_bytes() == b.read_bytes()


def test_bad_arguments_exit_two():
    with pytest.raises(SystemExit) as exc:
        main(["betti", "--cpm", "2"])  # missing --k
    assert exc.value.code == 2
    with pytest.raises(SystemExit):
        main(["no-such-command"])
    with pytest.raises(SystemExit) as exc:
        main(["betti", "--cpm", "2", "--k", "3", "--max-monomials", "-1"])
    assert exc.value.code == 2
    # only ray and verify fan out, so only they take --jobs
    with pytest.raises(SystemExit) as exc:
        main(["betti", "--cpm", "2", "--k", "3", "--jobs", "2"])
    assert exc.value.code == 2
    for flag, bad in (("--p-max", "0"), ("--deg-max", "-1")):
        with pytest.raises(SystemExit) as exc:
            main(["ray", "--cpm", "2", "--i", "1", "--k-max", "12", flag, bad])
        assert exc.value.code == 2


def test_table_consistency_fail_path(monkeypatch, capsys):
    # one reduced table of CP^1 made wrong in one degree: verify reports
    # exactly that (k, degree) and exits 1
    k, degree = 5, 3
    cache = build_generators(make_cpm(1))._complexes
    saved = cache.pop((k, "reduced"), None)
    build = homology._build

    def perturbed(G, k_, mode):
        record = build(G, k_, mode)
        if (k_, mode) == (k, "reduced"):
            dims = dict(record.table.dims)
            dims[degree] += 1
            record = record._replace(table=record.table._replace(dims=dims))
        return record

    monkeypatch.setattr(homology, "_build", perturbed)
    try:
        rep = extremal.verify_vanishing_ranges(1, 8)
        check = {c.check_id: c for c in rep.checks}["table-consistency"]
        assert check.status == "fail" and not rep.ok
        assert check.detail == {"mismatches": [[k, degree]]}
        rc, out, _ = run(capsys, "verify", "--cpm", "1", "--k-max", "8", "--jobs", "1",
                         "--format", "json")
        assert rc == 1
        doc = json.loads(out)
        assert doc["ok"] is False
        assert [c["detail"] for c in doc["checks"]
                if c["id"] == "table-consistency"] == [{"mismatches": [[k, degree]]}]
    finally:
        # the wrong record must not outlive the test
        cache.pop((k, "reduced"), None)
        if saved is not None:
            cache[k, "reduced"] = saved


def test_jobs_default():
    cfg = build_parser().parse_args(["verify", "--cpm", "2", "--k-max", "8"])
    assert cfg.jobs == 1
    cfg = build_parser().parse_args(["verify", "--cpm", "2", "--k-max", "8", "--jobs", "2"])
    assert cfg.jobs == 2


def test_jobs_below_one_rejected():
    for bad in ("0", "-3"):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--cpm", "2", "--k-max", "8", "--jobs", bad])
        assert exc.value.code == 2


def test_worker_count_is_clamped(monkeypatch):
    # computed without starting any process
    monkeypatch.setattr(extremal.os, "cpu_count", lambda: 4)
    assert extremal.worker_count(10000, 18) == 4
    assert extremal.worker_count(3, 18) == 3
    assert extremal.worker_count(8, 2) == 2
    assert extremal.worker_count(8, 0) == 1
    assert extremal.worker_count(1, 18) == 1
    monkeypatch.setattr(extremal.os, "cpu_count", lambda: None)
    assert extremal.worker_count(8, 18) == 1


def test_internal_errors_exit_four(tmp_path, capsys, monkeypatch):
    path = tmp_path / "cp2.json"
    path.write_text(json.dumps(cp2_ring_doc()))  # a fresh ring, no cached blocks
    # a failed engine check, and any other RuntimeError
    for exc in (AssemblyError("d o d != 0 out of slice (3, 1)"),
                RuntimeError("no blocks today")):
        def broken_assembly(G, basis):
            raise exc

        monkeypatch.setattr(homology, "assemble_blocks", broken_assembly)
        rc, out, err = run(capsys, "betti", "--ring", str(path), "--k", "3")
        assert rc == 4 and out == ""
        assert err == "internal error: %s: %s\n" % (type(exc).__name__, exc)

    def broken_pool(m, ks, mode, jobs):
        raise BrokenProcessPool("a worker died")

    monkeypatch.setattr(extremal, "_betti_dims_range", broken_pool)
    rc, _, err = run(capsys, "verify", "--cpm", "2", "--k-max", "8", "--jobs", "2")
    assert rc == 4
    assert err.startswith("internal error: BrokenProcessPool")


def test_cli_import_leaves_the_process_pool_out():
    # the pool (and multiprocessing) is imported only where one starts,
    # the extremal module only by ray and verify, and no record needs
    # the dataclasses machinery
    src = os.path.dirname(os.path.dirname(configcohom.__file__))
    code = ("import sys, configcohom.cli; print(sorted(m for m in "
            "('multiprocessing', 'concurrent.futures.process', 'dataclasses', "
            "'inspect', 'configcohom.extremal') if m in sys.modules))")
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, check=True)
    assert done.stdout == "[]\n"


@pytest.mark.parametrize("run_it", [
    "import configcohom",
    "from configcohom.cli import main; main(['betti', '--cpm', '2', '--k', '4'])",
    "from configcohom.cli import main; main(['betti', '--cpm', '2', '--k', '4', "
    "'--mode', 'both', '--format', 'json'])",
], ids=["package", "betti", "betti-both"])
def test_package_and_betti_load_only_what_they_run(run_it):
    src = os.path.dirname(os.path.dirname(configcohom.__file__))
    code = ("import sys\n%s\nprint(sorted(m for m in ('multiprocessing', "
            "'concurrent.futures.process', 'dataclasses', 'inspect', "
            "'configcohom.extremal') if m in sys.modules), file=sys.stderr)" % run_it)
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, check=True)
    assert done.stderr == "[]\n"


def test_extremal_exports_resolve_on_first_use():
    src = os.path.dirname(os.path.dirname(configcohom.__file__))
    code = "\n".join([
        "import sys, configcohom",
        "assert 'configcohom.extremal' not in sys.modules",
        "from configcohom import extremal",
        "assert extremal is sys.modules['configcohom.extremal']",
        "ns = {}",
        "exec('from configcohom import *', ns)",
        "missing = [n for n in configcohom.__all__ if n not in ns]",
        "assert not missing, missing",
        "for name in configcohom.__all__:",
        "    assert getattr(configcohom, name) is ns[name], name",
        "assert configcohom.hilbert_ray is extremal.hilbert_ray",
        "assert issubclass(configcohom.UnderDeterminedError, ValueError)",
        "try:",
        "    configcohom.no_such_name",
        "except AttributeError as exc:",
        "    assert 'no_such_name' in str(exc)",
        "else:",
        "    raise AssertionError('unknown attribute resolved')",
        "print('ok')",
    ])
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "ok\n"


def test_python_dash_m_runs_the_cli():
    src = os.path.dirname(os.path.dirname(configcohom.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-m", "configcohom", "betti",
                           "--cpm", "1", "--k", "3", "--format", "csv"],
                          env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "degree,dim\n0,1\n1,0\n2,0\n3,1\n4,0\n5,0\n6,0\n"
