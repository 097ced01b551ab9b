import copy
import hashlib
import json
import os
import re
import time
from concurrent.futures.process import BrokenProcessPool

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from configcohom import cli, extremal, homology, make_cpm
from configcohom.cecomplex import AssemblyError
from configcohom.cli import build_parser, main
from oracles import (cp2_half_ring, cp2_ring_doc, malformed_ring_docs, s4_ring, torus_ring,
                     unreadable_ring_files, wide_ring_doc)


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


def test_betti_both_mode_json_and_csv(capsys):
    rc, out, err = run(capsys, "betti", "--cpm", "2", "--k", "5", "--mode", "both",
                       "--format", "json")
    assert rc == 0 and err == ""
    doc = json.loads(out)
    assert sorted(doc) == ["consistent", "first_mismatch", "full", "reduced"]
    assert doc["consistent"] is True and doc["first_mismatch"] is None
    assert doc["full"]["mode"] == "full" and doc["reduced"]["mode"] == "reduced"
    _, full_csv, _ = run(capsys, "betti", "--cpm", "2", "--k", "5", "--format", "csv")
    # the csv of both modes is the full table alone
    rc, out, err = run(capsys, "betti", "--cpm", "2", "--k", "5", "--mode", "both",
                       "--format", "csv")
    assert rc == 0 and err == "" and out == full_csv


def test_betti_both_mode_disagreement_exits_one(monkeypatch, capsys):
    report = homology.consistency_report(make_cpm(2), 5)
    bad = report._replace(ok=False, first_mismatch=3)
    monkeypatch.setattr(cli, "consistency_report", lambda R, k: bad)
    rc, out, err = run(capsys, "betti", "--cpm", "2", "--k", "5", "--mode", "both")
    assert rc == 1
    assert out.endswith("\nconsistent: NO (first mismatch in degree 3)\n")
    assert err == "full and reduced tables disagree at degree 3\n"


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


def test_ring_file_with_a_fractional_coefficient(tmp_path, capsys):
    # "1/2" in a ring file is read exactly: the file validates, and its
    # full and reduced tables agree
    doc = cp2_half_ring().to_dict()
    assert {"basis": "y", "coeff": "1/2"} in [t for p in doc["products"] for t in p["result"]]
    path = tmp_path / "cp2-half.json"
    path.write_text(json.dumps(doc))
    rc, out, _ = run(capsys, "ring-check", "--ring", str(path))
    assert rc == 0 and out == "ring %s: valid\n" % path
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
    # the count stops once it passes the cap, so a huge k is refused at
    # once, in either mode
    for mode in ("full", "reduced"):
        rc, _, err = run(capsys, "betti", "--cpm", "2", "--k", "1000000000", "--mode", mode)
        assert rc == 3, mode
        assert "more than 2000000 monomials" in err, mode


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
    rc, _, err = run(capsys, "verify", "--cpm", "2", "--k-max", "6", *cap)
    assert rc == 3 and "cap" in err


def test_ray_k_range_counts_against_the_cap(capsys, fresh_python):
    # each k of a ray is one window build, so a ray over more k than the
    # cap is refused before any is built, although S^2's reduced complex
    # holds 4 monomials at every k; a cap of 8 admits k = 2..9 on CP^1
    # (its 8 basis triples) and refuses k = 2..10
    ray = ("ray", "--cpm", "1", "--i", "1", "--max-monomials", "8")
    assert run(capsys, *ray, "--k-max", "9")[0] == 0
    assert run(capsys, *ray, "--k-max", "10") == (
        3, "", "ray builds 9 windows, one per k = 2..10, more than the cap of 8 "
               "(raise --max-monomials to proceed)\n")
    done = fresh_python("-m", "configcohom", "ray", "--cpm", "1", "--i", "1",
                        "--k-max", "1000000000", timeout=10)
    assert done.returncode == 3 and done.stdout == ""
    assert done.stderr == ("ray builds 999999999 windows, one per k = 2..1000000000, more than "
                           "the cap of 2000000 (raise --max-monomials to proceed)\n")


@pytest.mark.parametrize("argv", [
    ("betti", "--cpm", "300", "--k", "2"),
    ("verify", "--cpm", "300", "--k-max", "8"),
], ids=["betti", "verify"])
def test_cap_bounds_the_ring_check(fresh_python, argv):
    # CP^300 has 301^3 basis triples, more than the default cap: the run
    # is refused before the ring is built or validated
    start = time.perf_counter()
    done = fresh_python("-m", "configcohom", *argv)
    elapsed = time.perf_counter() - start
    assert done.returncode == 3 and done.stdout == ""
    assert done.stderr == ("ring CP^300 has 27270901 basis triples to check, more than "
                           "the cap of 2000000 (raise --max-monomials to proceed)\n")
    assert elapsed < 1.0


@pytest.mark.parametrize("name, top", [("S^2", 3), ("S^4", 7)])
def test_sphere_far_out_in_a_fresh_process(tmp_path, fresh_python, name, top):
    # C_k(S^2n) has Q in degrees 0 and 4n - 1 only, for k >= 3
    # (Randal-Williams); the reduced complex stops at weight 1, so its
    # count and build take no time at k = 10^9
    path = tmp_path / "s4.json"
    path.write_text(json.dumps(s4_ring().to_dict()))
    source = ("--cpm", "1") if name == "S^2" else ("--ring", str(path))
    done = fresh_python("-m", "configcohom", "betti", *source,
                        "--k", "1000000000", "--mode", "reduced", timeout=10)
    assert done.returncode == 0 and done.stderr == ""
    dims = dict(map(int, line[2:].split(" = ")) for line in done.stdout.splitlines()
                if line.startswith("H^"))
    assert {i: b for i, b in dims.items() if b} == {0: 1, top: 1}


def test_cap_bounds_ring_check_on_a_wide_file(tmp_path, fresh_python):
    # ring-check refuses a 300-class file (27,000,000 triples) before it
    # validates it, with the message and exit code of its siblings
    path = tmp_path / "wide.json"
    path.write_text(json.dumps(wide_ring_doc(300)))
    start = time.perf_counter()
    done = fresh_python("-m", "configcohom", "ring-check", "--ring", str(path))
    elapsed = time.perf_counter() - start
    assert done.returncode == 3 and done.stdout == ""
    assert done.stderr == ("ring %s has 27000000 basis triples to check, more than the cap "
                           "of 2000000 (raise --max-monomials to proceed)\n" % path)
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
    # ring-check applies the same rule, to a valid ring and an invalid one
    good = tmp_path / "good.json"
    good.write_text(json.dumps(cp2_ring_doc()))
    for path in (good, bad):
        rc, out, err = run(capsys, "ring-check", "--ring", str(path), "--max-monomials", "26")
        assert rc == 3 and out == ""
        assert err == ("ring %s has 27 basis triples to check, more than the "
                       "cap of 26 (raise --max-monomials to proceed)\n" % path)
    rc, out, _ = run(capsys, "ring-check", "--ring", str(good), "--max-monomials", "27")
    assert rc == 0 and out == "ring %s: valid\n" % good


def test_ray_checks_k_min_before_counting_its_range(capsys):
    # a negative --k-min is an input error under any cap, never a k range
    # the cap refuses
    for cap in ("8", "2000000"):
        assert run(capsys, "ray", "--cpm", "1", "--i", "1", "--k-min", "-5", "--k-max", "10",
                   "--max-monomials", cap) == (
            2, "", "error: k must be a non-negative integer, got -5\n"), cap


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
        assert rc == 2 and out == "" and err.count("\n") == 1 and err.endswith("\n")
        assert err.startswith("malformed ring presentation: ") and "Traceback" not in err
        assert re.search(message, err)


def _positions(node, path=()):
    """The path of every value in a JSON document, the root's () first."""
    yield path
    items = (node.items() if isinstance(node, dict)
             else enumerate(node) if isinstance(node, list) else ())
    for key, child in items:
        yield from _positions(child, path + (key,))


# a value of each JSON type, names of the documents' own classes among them
_EDIT_VALUES = (None, True, 0, 3, -1, "", "x", "1/2", [], {}, ["x"], {"name": "x", "degree": 2})


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.sampled_from([cp2_ring_doc, lambda: torus_ring().to_dict()]),
       st.randoms(use_true_random=True))
def test_mutated_ring_document_exits_cleanly(tmp_path, capsys, make_doc, rng):
    # one to three random edits of a valid document, each replacing a value
    # (the root's too) or deleting a key or list item: every run exits 0, 2
    # or 3 with at most one stderr line, and a traceback would escape main
    doc = make_doc()
    for _ in range(rng.randint(1, 3)):
        path = rng.choice(list(_positions(doc)))
        value = copy.deepcopy(rng.choice(_EDIT_VALUES))
        if not path:
            doc = value
            continue
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        if rng.random() < 0.25:
            del parent[path[-1]]
        else:
            parent[path[-1]] = value
    ring = tmp_path / "mutated.json"
    ring.write_text(json.dumps(doc))
    for argv in (["ring-check"], ["betti", "--k", "3"]):
        rc, _, err = run(capsys, *argv, "--ring", str(ring))
        assert rc in (0, 2, 3) and err.count("\n") <= 1, (argv, doc, err)


def test_ring_check_json_format(tmp_path, capsys):
    good = tmp_path / "good.json"
    good.write_text(json.dumps(cp2_ring_doc()))
    rc, out, _ = run(capsys, "ring-check", "--ring", str(good),
                     "--format", "json")
    assert rc == 0
    assert json.loads(out) == {"valid": True, "violations": []}


def _write_ring_files(directory):
    """torus.json, good.json (CP^2) and bad.json (CP^2 without x * x) in directory."""
    (directory / "torus.json").write_text(json.dumps(torus_ring().to_dict()))
    (directory / "good.json").write_text(json.dumps(cp2_ring_doc()))
    doc = cp2_ring_doc()
    doc["products"] = [p for p in doc["products"]
                       if (p["left"], p["right"]) != ("x", "x")]
    (directory / "bad.json").write_text(json.dumps(doc))


# sha256 of exit code, stdout and stderr of each command, run in a directory
# holding the files of _write_ring_files; every subcommand and format, both
# betti modes and degree indexings, and a ray with no certificate (CP^3 to k = 7)
FROZEN_CLI_ARTIFACTS = (
    ("betti --cpm 2 --k 6 --mode full --format text --degrees cohomological",
     "c2fa10d55978817bdcc8843b037b530ddcae2317dd29d85d3858a02e3408681f"),
    ("betti --cpm 2 --k 6 --mode full --format text --degrees homological",
     "6b4be9f64cff531ca0a0d56a21513a7e99e08836045db20612e7e99755404f64"),
    ("betti --cpm 2 --k 6 --mode full --format csv --degrees cohomological",
     "2417cbd470d9301fb90d97ff385142605972f790e8b0e5a5fded5e31201db8b1"),
    ("betti --cpm 2 --k 6 --mode full --format csv --degrees homological",
     "2417cbd470d9301fb90d97ff385142605972f790e8b0e5a5fded5e31201db8b1"),
    ("betti --cpm 2 --k 6 --mode full --format json --degrees cohomological",
     "b68c9d99a02ab7b1c5c4ef4b9a365a38e7e5ae03f73112dabe09ed95a5077dd2"),
    ("betti --cpm 2 --k 6 --mode full --format json --degrees homological",
     "df317b6ba191396c87c90563d34081facfb0100360c3872f594713ae91b9de93"),
    ("betti --cpm 2 --k 6 --mode both --format text --degrees cohomological",
     "613cec76f1d44ef3df4d7ca2f589691a4196d03e6e02118c49e1ae54174aac59"),
    ("betti --cpm 2 --k 6 --mode both --format text --degrees homological",
     "4fc1a7898b9784e3e937af288153937374ef4e5611e353916357310894ba2798"),
    ("betti --cpm 2 --k 6 --mode both --format csv --degrees cohomological",
     "2417cbd470d9301fb90d97ff385142605972f790e8b0e5a5fded5e31201db8b1"),
    ("betti --cpm 2 --k 6 --mode both --format csv --degrees homological",
     "2417cbd470d9301fb90d97ff385142605972f790e8b0e5a5fded5e31201db8b1"),
    ("betti --cpm 2 --k 6 --mode both --format json --degrees cohomological",
     "10fa22287e9bb7b39627f0c58d158b9adb3cf78e25800b358069524f3009fb85"),
    ("betti --cpm 2 --k 6 --mode both --format json --degrees homological",
     "3b89bf009a553cda6d32415d2322bec1e38dfe40d5959da24a3d71fd417f4665"),
    ("betti --ring torus.json --k 8 --mode full --format text --degrees cohomological",
     "b58f41709f66ef4c91b56da75c71a449e242950a5f065473d85e18c89e26b0e3"),
    ("betti --ring torus.json --k 8 --mode full --format text --degrees homological",
     "58c496e32d486df80a94bc1bae77c3071b7de7fd07323e911a088e4d4cb27a93"),
    ("betti --ring torus.json --k 8 --mode full --format csv --degrees cohomological",
     "980c3d873244ae2e536705b2cf535baa6cca218fbf5e17a365a528965371c7a6"),
    ("betti --ring torus.json --k 8 --mode full --format csv --degrees homological",
     "980c3d873244ae2e536705b2cf535baa6cca218fbf5e17a365a528965371c7a6"),
    ("betti --ring torus.json --k 8 --mode full --format json --degrees cohomological",
     "0067dd3cf34496945482cc5cf60be469b3a72b59bf97053126eee7fa1393c45c"),
    ("betti --ring torus.json --k 8 --mode full --format json --degrees homological",
     "01f7d3fb168ccac0e30cab03ea275989ead81d3e10f6c9c5bdeef09834578cf7"),
    ("betti --ring torus.json --k 8 --mode both --format text --degrees cohomological",
     "2b68da25e4eb68fd9ae75be65f286f2457abecd249b48485480701c4c52144d4"),
    ("betti --ring torus.json --k 8 --mode both --format text --degrees homological",
     "447a56aa603ed68769c8eaee871e0363ee319beba00c71b2310ceacfda7525ce"),
    ("betti --ring torus.json --k 8 --mode both --format csv --degrees cohomological",
     "980c3d873244ae2e536705b2cf535baa6cca218fbf5e17a365a528965371c7a6"),
    ("betti --ring torus.json --k 8 --mode both --format csv --degrees homological",
     "980c3d873244ae2e536705b2cf535baa6cca218fbf5e17a365a528965371c7a6"),
    ("betti --ring torus.json --k 8 --mode both --format json --degrees cohomological",
     "465e9a5127e6ed6f8df981345dce636e28cd9eb772241c2247d2a0d918cc75b8"),
    ("betti --ring torus.json --k 8 --mode both --format json --degrees homological",
     "4942408d27f9cb73c6e724adc585b277ccac4e69fcbc0722323440606d797fbd"),
    ("ray --cpm 2 --i 0 --k-max 10 --format text",
     "ebcfb3c5d558d20db0fccb1d3ee35b7db9dcc3f00bc65b0e40443bfc706b267f"),
    ("ray --cpm 2 --i 0 --k-max 10 --format csv",
     "40fd084f2133aab7064cf0ccbd133839f23f2612a468ea5f7c2b95ad84ceb36d"),
    ("ray --cpm 2 --i 0 --k-max 10 --format json",
     "1b07f47f8c4d8a7bdbf13a0600019098bd44e89bc64134c94b1d1b2cb215d4fa"),
    ("ray --cpm 2 --i 1 --k-max 10 --format text",
     "745e57933a4fa9ecc5a226d54de4d2d21b794f765cf0b5e98be607fe29d55268"),
    ("ray --cpm 2 --i 1 --k-max 10 --format csv",
     "9d15d56531b66298e7833b91fec41dedb1c88ceec3a00bc1874d0977f9cbf160"),
    ("ray --cpm 2 --i 1 --k-max 10 --format json",
     "40c28c374d807d74d3564affb0de8f10d6d4cd126c3b25ac9e9d41c9c105fa21"),
    ("ray --cpm 3 --i 0 --k-max 10 --format text",
     "9a3a2a69298ca74669aef6f985556668fcec380716e78f2eb8bc584a5b94fbc8"),
    ("ray --cpm 3 --i 0 --k-max 10 --format csv",
     "7aa2b14edc48a203c61ca748245849e65eb75d4f2433ddcadb71ff8f3f590b18"),
    ("ray --cpm 3 --i 0 --k-max 10 --format json",
     "1d109a046d03e549b5c802d67d29e3fba41a34f17288b0168095553d4420f75a"),
    ("ray --cpm 3 --i 1 --k-max 10 --format text",
     "799fde671d0b5e3b06d1e83c20845abf6a987691c53a15c46c8810c07d3a71fd"),
    ("ray --cpm 3 --i 1 --k-max 10 --format csv",
     "0ae6e19709caa3c7c9be5ade98b989b9caf30e2530edc55d8ac3149932abede3"),
    ("ray --cpm 3 --i 1 --k-max 10 --format json",
     "d5b722016ea1bdb6a1de0db8b46bfc4b297812c0a7b2edc2b7ec8ceaa21b9542"),
    ("ray --cpm 3 --i 0 --k-max 7 --format text",
     "bcf41625a0f618773e0b91e1e1ee5c16b464029c4d17d64cd8f665d862def23a"),
    ("ray --cpm 3 --i 0 --k-max 7 --format csv",
     "bec2769b04f1678e8a238b1bcb3f23db97924ada2eafb3a58b07362db6367ac2"),
    ("ray --cpm 3 --i 0 --k-max 7 --format json",
     "49e3a9ec4a3dc7878a995fe18168db6fbf7caa4d85e6b04b95b6fbba33d49879"),
    ("verify --cpm 2 --k-max 8 --format text",
     "0cd384356a80015fd89044b287655dc408a2b7ae583d08803dc71c14799b79da"),
    ("verify --cpm 2 --k-max 8 --format json",
     "9b9fda63c1e91aa8451e97cab5d622d92db830debb2060cba50f4f6c0a5f733b"),
    ("ring-check --ring good.json --format text",
     "98f5f6fdcdf5c5bdf1684e6b657346fa5ba69bdf567225a9f5be91469036cd47"),
    ("ring-check --ring good.json --format json",
     "ef4db157a36a111fefe8fcf130fe866e1ced182b44b9772b973ab1ebe332ebdb"),
    ("ring-check --ring bad.json --format text",
     "18268670151d939eff97fe4a0c4348d51598ee1eafe0baaf0257b5bf6b594249"),
    ("ring-check --ring bad.json --format json",
     "5c91d732c9557a6aa5869921ef2d4a79e5216b37e3a3a5b2da87a02a87fd992c"),
)


def test_frozen_cli_artifact_digests(tmp_path, monkeypatch, capsys):
    _write_ring_files(tmp_path)
    monkeypatch.chdir(tmp_path)
    for argv, want in FROZEN_CLI_ARTIFACTS:
        rc, out, err = run(capsys, *argv.split())
        got = hashlib.sha256(b"%d\n%s\0%s" % (rc, out.encode(), err.encode())).hexdigest()
        assert got == want, argv


def test_output_file_and_jobs_determinism(tmp_path, capsys):
    # --output writes exactly the bytes stdout gets, for every subcommand
    # and format, and stdout stays empty; ray takes no --jobs (verify's
    # output under every --jobs is criterion 10's)
    _write_ring_files(tmp_path)
    good, bad = str(tmp_path / "good.json"), str(tmp_path / "bad.json")
    commands = [["betti", "--cpm", "2", "--k", "5", "--mode", mode, "--format", fmt]
                for mode in ("full", "both") for fmt in ("text", "csv", "json")]
    commands += [["ray", "--cpm", "2", "--i", "1", "--k-max", "9", "--format", fmt]
                 for fmt in ("text", "csv", "json")]
    commands += [["verify", "--cpm", "2", "--k-max", "8", "--format", fmt]
                 for fmt in ("text", "json")]
    commands += [["ring-check", "--ring", ring, "--format", fmt]
                 for ring in (good, bad) for fmt in ("text", "json")]
    for n, argv in enumerate(commands):
        path = tmp_path / ("artifact-%d" % n)
        rc, out, err = run(capsys, *argv)
        assert out
        assert run(capsys, *argv, "--output", str(path)) == (rc, "", err), argv
        assert path.read_bytes() == out.encode(), argv


def test_bad_arguments_exit_two():
    with pytest.raises(SystemExit) as exc:
        main(["betti", "--cpm", "2"])  # missing --k
    assert exc.value.code == 2
    with pytest.raises(SystemExit):
        main(["no-such-command"])
    with pytest.raises(SystemExit) as exc:
        main(["betti", "--cpm", "2", "--k", "3", "--max-monomials", "-1"])
    assert exc.value.code == 2
    # only verify fans out, so only it takes --jobs
    for argv in (["betti", "--cpm", "2", "--k", "3"],
                 ["ray", "--cpm", "2", "--i", "1", "--k-max", "6"]):
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--jobs", "2"])
        assert exc.value.code == 2
    # a ray reads the reduced complex, so ray takes no --mode
    with pytest.raises(SystemExit) as exc:
        main(["ray", "--cpm", "2", "--i", "1", "--k-max", "6", "--mode", "full"])
    assert exc.value.code == 2
    for flag, bad in (("--p-max", "0"), ("--deg-max", "-1")):
        with pytest.raises(SystemExit) as exc:
            main(["ray", "--cpm", "2", "--i", "1", "--k-max", "12", flag, bad])
        assert exc.value.code == 2


def test_table_consistency_fail_path(monkeypatch, capsys):
    # one reduced table of CP^1 made wrong in one degree: verify and
    # betti --mode both, which share one comparison, report exactly that
    # (k, degree) and exit 1
    k, degree = 5, 3
    build = homology._build

    def perturbed(G, k_, mode):
        record = build(G, k_, mode)
        if (k_, mode) == (k, "reduced"):
            dims = dict(record.table.dims)
            dims[degree] += 1
            record = record._replace(table=record.table._replace(dims=dims))
        return record

    monkeypatch.setattr(homology, "_build", perturbed)
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
    rc, out, err = run(capsys, "betti", "--cpm", "1", "--k", str(k), "--mode", "both")
    assert rc == 1
    assert out.endswith("\nconsistent: NO (first mismatch in degree %d)\n" % degree)
    assert err == "full and reduced tables disagree at degree %d\n" % degree


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


def test_rejected_integer_options_follow_the_library_rule(capsys):
    # one bounded-int type, built on the library's integer rule, and
    # argparse's own line for text that is no int
    for flag, bad, message in (
            ("--jobs", "0", "the value must be a positive integer, got 0"),
            ("--max-monomials", "-1", "the value must be a non-negative integer, got -1"),
            ("--jobs", "x", "invalid integer value: 'x'")):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--cpm", "2", "--k-max", "8", flag, bad])
        assert exc.value.code == 2
        assert capsys.readouterr().err.endswith(
            "error: argument %s: %s\n" % (flag, message))


def test_worker_count_is_clamped(monkeypatch):
    # computed without starting any process
    monkeypatch.setattr(extremal.os, "sched_getaffinity", lambda pid: {0, 1, 2, 3},
                        raising=False)
    monkeypatch.setattr(extremal.os, "cpu_count", lambda: 4)
    assert extremal.worker_count(10000, 18) == 4
    assert extremal.worker_count(3, 18) == 3
    assert extremal.worker_count(8, 2) == 2
    assert extremal.worker_count(8, 0) == 1
    assert extremal.worker_count(1, 18) == 1
    # where the platform cannot tell the usable CPUs, the host's count
    monkeypatch.delattr(extremal.os, "sched_getaffinity")
    monkeypatch.setattr(extremal.os, "cpu_count", lambda: None)
    assert extremal.worker_count(8, 18) == 1
    # jobs is an int of at least 1, as --jobs is: nothing runs serially
    # in its place, and no float reaches the pool
    for bad in (0, -2, 2.5, "2", True):
        with pytest.raises(ValueError, match="jobs must be a positive integer"):
            extremal.worker_count(bad, 18)
        with pytest.raises(ValueError, match="jobs must be a positive integer"):
            extremal.verify_vanishing_ranges(2, 8, jobs=bad)


def test_worker_count_follows_the_cpu_affinity(monkeypatch):
    # a process pinned to one CPU of a larger host gets one worker
    monkeypatch.setattr(extremal.os, "sched_getaffinity", lambda pid: {0}, raising=False)
    monkeypatch.setattr(extremal.os, "cpu_count", lambda: 8)
    assert extremal.worker_count(4, 18) == 1


def test_internal_errors_exit_four(tmp_path, capsys, monkeypatch):
    path = tmp_path / "cp2.json"
    path.write_text(json.dumps(cp2_ring_doc()))  # every build assembles its blocks
    # a failed engine check, and any other RuntimeError
    for exc in (AssemblyError("d o d != 0 out of slice (3, 1)"),
                RuntimeError("no blocks today")):
        def broken_assembly(G, basis):
            raise exc

        monkeypatch.setattr(homology, "assemble_blocks", broken_assembly)
        rc, out, err = run(capsys, "betti", "--ring", str(path), "--k", "3")
        assert rc == 4 and out == ""
        assert err == "internal error: %s: %s\n" % (type(exc).__name__, exc)

    def broken_pool(G, ks, jobs):
        raise BrokenProcessPool("a worker died")

    monkeypatch.setattr(extremal, "_betti_dims_range", broken_pool)
    rc, _, err = run(capsys, "verify", "--cpm", "2", "--k-max", "8", "--jobs", "2")
    assert rc == 4
    assert err.startswith("internal error: BrokenProcessPool")


def test_cli_import_leaves_the_process_pool_out(fresh_python):
    # the pool (and multiprocessing) is imported only where one starts,
    # the extremal module only by ray and verify, and no record needs
    # the dataclasses machinery
    code = ("import sys, configcohom.cli; print(sorted(m for m in "
            "('multiprocessing', 'concurrent.futures.process', 'dataclasses', "
            "'inspect', 'configcohom.extremal') if m in sys.modules))")
    done = fresh_python("-c", code)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "[]\n"


@pytest.mark.parametrize("run_it", [
    "import configcohom",
    "from configcohom.cli import main; main(['betti', '--cpm', '2', '--k', '4'])",
    "from configcohom.cli import main; main(['betti', '--cpm', '2', '--k', '4', "
    "'--mode', 'both', '--format', 'json'])",
], ids=["package", "betti", "betti-both"])
def test_package_and_betti_load_only_what_they_run(fresh_python, run_it):
    code = ("import sys\n%s\nprint(sorted(m for m in ('multiprocessing', "
            "'concurrent.futures.process', 'dataclasses', 'inspect', "
            "'configcohom.extremal') if m in sys.modules), file=sys.stderr)" % run_it)
    done = fresh_python("-c", code)
    assert done.returncode == 0, done.stderr
    assert done.stderr == "[]\n"


def test_extremal_exports_resolve_on_first_use(fresh_python):
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
    done = fresh_python("-c", code)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "ok\n"


def test_python_dash_m_runs_the_cli(fresh_python):
    done = fresh_python("-m", "configcohom", "betti", "--cpm", "1", "--k", "3", "--format", "csv")
    assert done.returncode == 0, done.stderr
    assert done.stdout == "degree,dim\n0,1\n1,0\n2,0\n3,1\n4,0\n5,0\n6,0\n"


# each command in its own interpreter, as a user runs it: the arguments
# after the interpreter, a timeout in seconds, the exit code, and a line
# that stdout or stderr holds (None: both stay empty)
FRESH_PROCESS_ROWS = [
    pytest.param(("-W", "error", "-c", "import configcohom, configcohom.cli, configcohom.extremal"),
                 10, 0, None, id="imports-raise-no-warning"),
    pytest.param(("-m", "configcohom", "betti", "--cpm", "6", "--k", "12", "--mode", "both"),
                 60, 0, "consistent: yes", id="cp6-k12-both-modes"),
    pytest.param(("-m", "configcohom", "ray", "--cpm", "3", "--i", "1", "--k-max", "12"),
                 10, 0, "certificate: period 1, onset 5, degree 0; class 0: 0", id="ray-cp3"),
    pytest.param(("-m", "configcohom", "ray", "--cpm", "7", "--i", "1", "--k-max", "14"),
                 10, 0, "certificate: period 1, onset 5, degree 0; class 0: 0", id="ray-cp7"),
    pytest.param(("-m", "configcohom", "ray", "--cpm", "12", "--i", "1", "--k-max", "14",
                  "--max-monomials", "1000000000"),
                 10, 0, "certificate: period 1, onset 5, degree 0; class 0: 0", id="ray-cp12"),
    pytest.param(("-m", "configcohom", "ray", "--cpm", "1", "--i", "1", "--k-max", "5000"),
                 10, 0, "certificate: period 1, onset 2, degree 0; class 0: 0", id="ray-s2-to-5000"),
    # a window reads only the tail lengths it kept: O(k) per window on CP^6, not O(k^2)
    pytest.param(("-m", "configcohom", "ray", "--cpm", "6", "--i", "1", "--k-min", "6000",
                  "--k-max", "6001", "--max-monomials", str(10 ** 30)),
                 10, 0, "certificate: period 1, onset 6000, degree 0; class 0: 0",
                 id="ray-cp6-at-k-6000"),
    # the window floors read the caps: CP^20 does not walk all 2^20 W-subsets
    pytest.param(("-m", "configcohom", "ray", "--cpm", "20", "--i", "1", "--k-min", "400",
                  "--k-max", "401", "--max-monomials", str(10 ** 60)),
                 10, 0, "certificate: period 1, onset 400, degree 0; class 0: 0",
                 id="ray-cp20-at-k-400"),
]


@pytest.mark.parametrize("args, timeout, code, line", FRESH_PROCESS_ROWS)
def test_command_in_a_fresh_process(fresh_python, args, timeout, code, line):
    done = fresh_python(*args, timeout=timeout)
    assert done.returncode == code, done.stderr
    if line is None:
        assert done.stdout == done.stderr == ""
    else:
        assert line in done.stdout.splitlines() + done.stderr.splitlines()


def test_verify_prints_the_same_under_one_and_two_jobs_in_fresh_processes(fresh_python):
    runs = [fresh_python("-m", "configcohom", "verify", "--cpm", "3", "--k-max", "9",
                         "--jobs", jobs) for jobs in ("1", "2")]
    assert [r.returncode for r in runs] == [0, 0], runs[1].stderr
    assert runs[0].stdout == runs[1].stdout and "overall: pass" in runs[0].stdout


def _readme_block(heading, fence):
    """The first fenced block of that kind after a README heading."""
    readme = os.path.join(os.path.dirname(os.path.dirname(__file__)), "README.md")
    with open(readme, encoding="utf-8") as fh:
        section = fh.read().split("\n%s\n" % heading, 1)[1]
    return section.split("```%s\n" % fence, 1)[1].split("```", 1)[0]


def test_readme_command_lines_run(tmp_path, monkeypatch, capsys):
    # every line of README's command-line block runs as written, with
    # README's own ring presentation example as ring.json
    (tmp_path / "ring.json").write_text(
        _readme_block("### Ring presentation files", "json"), encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    lines = _readme_block("## Command line", "").splitlines()
    assert len(lines) == 7
    for line in lines:
        command, *argv = line.split("#", 1)[0].split()
        assert command == "configcohom", line
        rc, _, err = run(capsys, *argv)
        assert rc == 0 and err == "", (line, err)


def test_readme_library_example_runs(capsys):
    # the python block of README's Library section runs as written
    block = _readme_block("## Library", "python")
    exec(compile(block, "README.md", "exec"), {})
    out = capsys.readouterr().out
    assert out.startswith("extremal range verification: CP^2, k up to 10\n")
    assert out.endswith("overall: pass\n")
