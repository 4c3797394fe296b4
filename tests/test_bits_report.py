import re
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tools"))

import bits_report  # noqa: E402

ITEMS = ([f"dg_2x2 seed {s}" for s in (1, 5, 11)]
         + [f"citation_eval seed {s}" for s in (1, 5, 11)]
         + ["weak_duality(0)", "weak_duality(1)"])


def test_tiny_report_fingerprints_every_item(capsys):
    assert bits_report.main(["--tiny"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line[66:] for line in lines] == ITEMS
    assert all(re.fullmatch(r"[0-9a-f]{64}  .+", line) for line in lines)


@dataclass
class Report:
    point: np.ndarray
    values: dict


def test_digest_follows_every_bit():
    base = bits_report.digest(Report(np.array([0.0, 1.5]), {0.5: 1.0}))
    assert base == bits_report.digest(Report(np.array([0.0, 1.5]),
                                             {0.5: 1.0}))
    for other in (Report(np.array([-0.0, 1.5]), {0.5: 1.0}),
                  Report(np.array([0.0, np.nextafter(1.5, 2)]), {0.5: 1.0}),
                  Report(np.array([0.0, 1.5]), {0.5: np.nextafter(1.0, 0)})):
        assert bits_report.digest(other) != base


def test_against_lists_the_items_that_differ(monkeypatch, capsys):
    ours = {name: "0" * 64 for name in ITEMS}
    theirs = dict(ours, **{"citation_eval seed 5": "1" * 64})
    roots = []

    def fake_fingerprint(root, tiny):
        roots.append(root)
        return ours if root == bits_report.ROOT else theirs

    monkeypatch.setattr(bits_report, "fingerprint", fake_fingerprint)
    monkeypatch.setattr(bits_report.bench_record, "extract",
                        lambda rev, dest: "c" * 40)
    assert bits_report.main(["--against", "HEAD~1"]) == 1
    out = capsys.readouterr().out
    assert out.splitlines()[-1] == "differ: citation_eval seed 5"
    assert len(roots) == 2 and roots[1] != bits_report.ROOT
    theirs = ours
    assert bits_report.main(["--against", "HEAD~1"]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "differ: none"


def test_a_failing_child_exits_2(monkeypatch, capsys):
    def failing(root, tiny):
        raise bits_report.ChildError("boom")

    monkeypatch.setattr(bits_report, "fingerprint", failing)
    assert bits_report.main([]) == 2
    assert "error: boom" in capsys.readouterr().err
