"""The output-byte gate: every deterministic output keeps its recorded digest."""

import json

import pytest

import golden

RECORD = json.loads(golden.GOLDEN.read_text())


@pytest.mark.parametrize("group", golden.GROUPS)
def test_outputs_keep_their_digests(group):
    digests, summary = golden.compute(group)
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
        "and list the old and new summaries in CHANGES.md "
        f"(old {RECORD['summaries'].get(group, {})}, new {summary}).{platform}")


@pytest.mark.parametrize("group", ["offpolicy", "diagnose"])
def test_off_policy_groups_have_a_summary(group):
    # a failing digest gate then shows the numbers that moved
    assert RECORD["summaries"][group]
    assert all(float(value) > 0 for value in RECORD["summaries"][group].values())


def test_write_reports_each_kappas_old_and_new_mean():
    lines = golden.summary_changes(
        {"sweep-a": {"kappa 1": "1.5"}, "gone": {"kappa 2": "3"},
         "offpolicy": {"q_a.bin sup": "12.5"}},
        {"sweep-a": {"kappa 1": "2.25", "kappa 3": "4"},
         "offpolicy": {"q_a.bin sup": "12.625", "q_b.bin sup": "3.0"},
         "diagnose": {"offpolicy relative_gap": "0.0123147527"}})
    assert lines == ["sweep-a: kappa 1 1.5 -> 2.25, kappa 3 - -> 4",
                     "offpolicy: q_a.bin sup 12.5 -> 12.625, q_b.bin sup - -> 3",
                     "diagnose: offpolicy relative_gap - -> 0.0123148"]
