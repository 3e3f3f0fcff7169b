"""The output-byte gate: every deterministic output keeps its recorded digest."""

import json

import pytest

import golden

RECORD = json.loads(golden.GOLDEN.read_text())


@pytest.mark.parametrize("group", golden.GROUPS)
def test_outputs_keep_their_digests(group):
    digests, means = golden.compute(group)
    expected = RECORD["digests"][group]
    changed = sorted(name for name in digests.keys() | expected.keys()
                     if digests.get(name) != expected.get(name))
    recorded = {key: RECORD[key] for key in golden.environment()}
    platform = ("" if golden.environment() == recorded else
                f" The digests were recorded on {recorded}, this is {golden.environment()}: "
                "a platform difference is a finding to investigate, not to re-pin.")
    assert not changed, (
        f"{group}: the bytes of {', '.join(changed)} changed. If the change is meant, "
        "bump gmfs.__version__, rewrite the digests with `python tests/golden.py --write` "
        "and list the old and new per-kappa means in CHANGES.md "
        f"(old {RECORD['means'].get(group, {})}, new {means}).{platform}")


def test_write_reports_each_kappas_old_and_new_mean():
    lines = golden.mean_changes({"sweep-a": {"1": "1.5"}, "gone": {"2": "3"}},
                                {"sweep-a": {"1": "2.25", "3": "4"}})
    assert lines == ["sweep-a: kappa 1 1.5000 -> 2.2500, kappa 3 - -> 4.0000"]
