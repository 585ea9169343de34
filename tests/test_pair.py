import importlib.util
import json
import os

_PATH = os.path.join(os.path.dirname(__file__), os.pardir, "tools", "pair.py")
_spec = importlib.util.spec_from_file_location("pair", _PATH)
pair = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(pair)


def test_pair_alternates_the_first_mode(capsys):
    # two pairs at a loose tolerance: one JSON line per run, the first mode
    # alternating, and a repeated run deciding the same
    assert pair.main(["--tol", "0.05", "0.05"]) == 0
    runs = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert [r["mode"] for r in runs] == ["multimesh", "singlemesh", "singlemesh", "multimesh"]
    for r in runs:
        assert set(r) == {"tol", "s", "N", "mode", "wall_s", "peak_rss_mb", "cumcost",
                          "union_dofs", "iterations"}
        assert r["tol"] == 0.05 and r["wall_s"] > 0.0 and r["peak_rss_mb"] > 0.0
        assert r["s"] == 0.3 and r["N"] == 176
    decided = {r["mode"]: (r["cumcost"], r["union_dofs"], r["iterations"]) for r in runs[:2]}
    assert all(decided[r["mode"]] == (r["cumcost"], r["union_dofs"], r["iterations"])
               for r in runs[2:])


def test_pair_takes_s(capsys):
    # the paper's largest pole sum: s = 0.1 gives N = 408 problems
    assert pair.main(["--tol", "0.2", "--s", "0.1"]) == 0
    runs = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert [r["mode"] for r in runs] == ["multimesh", "singlemesh"]
    assert all(r["s"] == 0.1 and r["N"] == 408 for r in runs)
