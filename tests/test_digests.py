"""Bit-identity of every pinned output against the committed digests.

``tests/data/digests.json`` holds one SHA-256 digest per group of outputs;
``make_digests.py`` documents the groups and, with ``--check``, explains a
mismatch residue by residue.
"""

import json

import pytest

import make_digests


def test_every_group_matches_its_committed_digest():
    expected = json.loads(make_digests.DIGESTS_PATH.read_text())
    names = [make_digests.group_name(*g) for g in make_digests.groups()]
    assert names == list(expected), "the groups no longer match the committed file"
    for g, name in zip(make_digests.groups(), names):
        try:
            got = make_digests.digest(make_digests.group_items(*g))
        except ArithmeticError as exc:
            pytest.fail(f"first differing group: {name} raised {exc}")
        assert got == expected[name], (
            f"first differing group: {name};"
            " run PYTHONPATH=src python3 tests/make_digests.py --check"
        )


def test_check_names_the_item_index_and_both_values(monkeypatch, capsys, tmp_path):
    """A change on one route is reported against the other route."""
    name = "residues dim=1 order=17 period=2"
    committed = json.loads(make_digests.DIGESTS_PATH.read_text())
    path = tmp_path / "digests.json"
    path.write_text(json.dumps({name: committed[name]}))
    monkeypatch.setattr(make_digests, "DIGESTS_PATH", path)
    real = make_digests.residue_items

    def skewed(dim, order, period):
        for label, values in real(dim, order, period):
            if label == "(0,) r=0 complement=True":
                values = values[:3] + (values[3] + 1,) + values[4:]
            yield label, values

    monkeypatch.setitem(make_digests.ITEMS, "residues", skewed)
    monkeypatch.setattr(make_digests, "groups", lambda: iter([("residues", 1, 17, 2)]))
    assert make_digests.check() == 1
    out = capsys.readouterr().out
    assert f"{name}: digest differs" in out
    assert "(0,) r=0 complement=True index 3: 25 here, 24 by the second route" in out
