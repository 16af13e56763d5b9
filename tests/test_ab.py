"""The A/B check of ``tools/ab.py``: run A/A on the first runs of its list,
its tally, and how it compares capped korient runs."""
import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _ab():
    spec = importlib.util.spec_from_file_location("ab", ROOT / "tools" / "ab.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_a_tree_compared_with_itself_is_equal_in_every_field():
    ab = _ab()
    base, change = ab.replay(ROOT, 3), ab.replay(ROOT, 3)
    assert [r["name"] for r in base] == ["single-edge [0, 1]", "single-edge [1, 0]", "double-edge [0, 2]"]
    assert ab.tally(base, change) == {field: (3, 0, 0) for field in ab.FIELDS}


def test_the_tally_counts_lower_higher_and_differing_runs():
    ab = _ab()
    base = [{"name": str(i), **dict.fromkeys(ab.FIELDS, 5)} for i in range(3)]
    change = [dict(r) for r in base]
    change[0].update(total_ops=4, stream_sha256=6)
    change[1].update(total_ops=6, max_delay_ops=4)
    counts = ab.tally(base, change)
    assert counts["total_ops"] == (1, 1, 1)
    assert counts["max_delay_ops"] == (2, 1, 0)
    assert counts["stream_sha256"] == (2, 0, 1)
    assert counts["solutions"] == (3, 0, 0)


def test_capped_runs_compare_only_the_classes_both_sides_list():
    ab = _ab()
    base = {"name": "r", "capped": True, "sorted_sha256": "a", "solutions": 3, "classes": {"1 2": "x", "2 1": "y"}}
    change = dict(base, sorted_sha256="b", solutions=4, classes={"1 2": "x", "0 3": "z"})
    assert ab.differing([base], [change]) == []
    change["classes"]["1 2"] = "w"
    assert ab.differing([base], [change]) == ["r"]
    whole = dict(base, capped=False)
    assert ab.differing([whole], [whole]) == []
    assert ab.differing([whole], [dict(whole, solutions=4)]) == ["r"]
