import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tools"))

import bench_record  # noqa: E402


def run_result(**values):
    return {"metrics": {name: {"value": v, "unit": "s"}
                        for name, v in values.items()}}


def test_summary_takes_median_and_quartiles_across_seeds():
    plain = [run_result(**{"a.run_s": v}) for v in (4.0, 1.0, 3.0, 2.0, 5.0)]
    traced = [run_result(**{"a.x.calls": 6.0}) for _ in range(5)]
    summary = bench_record.summarise(plain, traced)
    run_s = summary["a"]["end_to_end"]["run_s"]
    assert run_s["median"] == 3.0
    assert (run_s["q1"], run_s["q3"], run_s["iqr"]) == (2.0, 4.0, 2.0)
    assert run_s["values"] == [4.0, 1.0, 3.0, 2.0, 5.0]
    assert run_s["unit"] == "s"
    assert summary["a"]["per_layer"]["x.calls"]["iqr"] == 0.0


def test_one_seed_has_zero_spread():
    figure = bench_record.spread([0.5])
    assert (figure["median"], figure["q1"], figure["q3"], figure["iqr"]) \
        == (0.5, 0.5, 0.5, 0.0)


@pytest.mark.parametrize("tag", ["../up", "", "a/b", "-x"])
def test_tag_must_be_a_file_name(tag):
    with pytest.raises(SystemExit):
        bench_record.parse_args(["--tag", tag, "--seeds", "1"])
