"""Reruns the recorded command set (``tests/golden/record.py``) and compares
each output with its reference: exit codes, stderr, keys, strings and
integers exactly, floats within 1e-9 (1 + |x|).  A byte comparison would
tie the references to one CPU's floating-point paths."""

import json
import math
from pathlib import Path

import pytest

from golden.record import GOLDEN, run

INDEX = json.loads((GOLDEN / "commands.json").read_text(encoding="utf-8"))


def _same(got, want, where: str) -> None:
    if isinstance(want, float) and isinstance(got, float):
        ok = got == want or (math.isfinite(want)
                             and abs(got - want) <= 1e-9 * (1.0 + abs(want)))
        assert ok, f"{where}: {got!r} != {want!r}"
    elif isinstance(want, dict):
        assert isinstance(got, dict) and list(got) == list(want), f"{where}: keys differ"
        for key in want:
            _same(got[key], want[key], f"{where}.{key}")
    elif isinstance(want, list):
        assert isinstance(got, list) and len(got) == len(want), f"{where}: lengths differ"
        for k, (a, b) in enumerate(zip(got, want)):
            _same(a, b, f"{where}[{k}]")
    else:
        assert type(got) is type(want) and got == want, f"{where}: {got!r} != {want!r}"


def _cells(line: str) -> list:
    out = []
    for cell in line.replace(";", ",").split(","):
        try:
            out.append(int(cell))
        except ValueError:
            try:
                out.append(float(cell))
            except ValueError:
                out.append(cell)
    return out


def _parse(text: str):
    try:
        return json.loads(text)
    except ValueError:  # the sweep's CSV
        return [_cells(line) for line in text.splitlines()]


@pytest.mark.parametrize("name", sorted(INDEX))
def test_command_matches_its_recorded_output(name):
    ref = INDEX[name]
    code, out, err = run(ref["argv"])
    assert (code, err) == (ref["exit"], ref["stderr"])
    want = (GOLDEN / f"{name}.out").read_text(encoding="utf-8")
    _same(_parse(out), _parse(want), name)
