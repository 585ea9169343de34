import copy
import importlib.util
import os

_PATH = os.path.join(os.path.dirname(__file__), os.pardir, "tools", "fingerprint.py")
_spec = importlib.util.spec_from_file_location("fingerprint", _PATH)
fingerprint = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(fingerprint)


def _synthetic(n_problems=8):
    # two marking calls and one checkpoint over n_problems problems
    return dict(
        workload="synthetic",
        records=[dict(m=0, solved_problems=n_problems, eta_union=0.5)],
        solved_per_iter=[list(range(n_problems))],
        marked_per_iter=[[]],
        stopped="tol",
        marks=[[f"call{i}-l{l}" for l in range(n_problems)] for i in range(2)],
        unions=["u0"],
        indicators=[[f"eta-l{l}" for l in range(n_problems)]],
        final_cell_keys=["k"] * n_problems,
        solutions=[[0.0, 1.0, 2.0]],
    )


def test_compare_names_marking_call_and_problems():
    a = _synthetic()
    assert fingerprint.compare(a, copy.deepcopy(a)) == ([], {"eta_union": 0.0, "solution": 0.0})
    b = copy.deepcopy(a)
    for l in (1, 2, 3, 5, 6, 7):
        b["marks"][1][l] = "other"
    b["indicators"][0][4] = "other"
    b["solutions"][0][2] = 2.5
    bad, diffs = fingerprint.compare(a, b)
    assert bad == [
        "marking call 1: marks of 6 problems differ, first l = [1, 2, 3, 5, 6]",
        "checkpoint 0: indicators of 1 problems differ, first l = [4]",
    ]
    assert diffs["solution"] == 0.5 / 2.5


def test_compare_reports_missing_marking_calls():
    a = _synthetic()
    b = copy.deepcopy(a)
    b["marks"].pop()
    bad, _ = fingerprint.compare(a, b)
    assert bad == ["the fingerprints hold different numbers of marking calls"]


def test_summary_counts_flips_and_integer_records():
    a = _synthetic()
    assert fingerprint.summary(a, copy.deepcopy(a)) == (
        "summary: integer records identical, 0 mark pairs flipped, "
        "0 indicator hashes differ, 0 final meshes differ"
    )
    b = copy.deepcopy(a)
    b["marks"][0][2] = b["marks"][1][2] = b["marks"][1][5] = "other"
    b["indicators"][0][4] = "other"
    b["final_cell_keys"][3] = "other"
    b["records"][0]["eta_union"] = 0.25  # a float field is not an integer record
    assert fingerprint.summary(a, b) == (
        "summary: integer records identical, 3 mark pairs flipped, "
        "1 indicator hashes differ, 1 final meshes differ"
    )
    b["records"][0]["solved_problems"] = 7
    assert fingerprint.summary(a, b).startswith("summary: integer records DIFFER,")


def test_forest_sizes_are_reported_not_compared():
    a = _synthetic()
    b = copy.deepcopy(a)
    a["forest"] = dict(rows=10, columns={"areas": 80, "ops(one)": 1920})
    b["forest"] = dict(rows=12, columns={"areas": 96})
    assert fingerprint.compare(a, b) == ([], {"eta_union": 0.0, "solution": 0.0})
    assert fingerprint.forest_sizes(a, b) == [
        "forest rows: 10 against 12",
        "forest column areas: 80 bytes against 96",
        "forest column ops(one): 1920 bytes against 0",
        "forest columns: 2000 bytes against 96",
    ]
    del a["forest"]
    assert fingerprint.forest_sizes(a, b) == ["forest table: not recorded by A"]


def test_forest_edges_are_reported_where_recorded():
    # a table that numbers forest edges records their count; one that does
    # not records none, and the count is reported, never compared
    a = _synthetic()
    b = copy.deepcopy(a)
    a["forest"] = dict(rows=10, edges=None, columns={"areas": 80})
    b["forest"] = dict(rows=12, edges=21, columns={"areas": 96})
    assert fingerprint.compare(a, b) == ([], {"eta_union": 0.0, "solution": 0.0})
    assert fingerprint.forest_sizes(a, b)[:2] == [
        "forest rows: 10 against 12",
        "forest edges: not recorded against 21",
    ]
    a["forest"]["edges"] = 17
    assert fingerprint.forest_sizes(a, b)[1] == "forest edges: 17 against 21"
