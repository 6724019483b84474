"""Random one- or two-field mutations of every loader's input, run in-process
through ``cli.main``: the exit code stays in the contract (0 ok, 1
violation, 2 invalid input, 3 search failure), no exception escapes, and
stdout is JSON.  A float, string or bool in place of an integer is
invalid input.
"""

import contextlib
import io
import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from patchtower.cli import main

POOL = json.loads((Path(__file__).resolve().parent.parent / "perfbench" / "data" / "ha_pool.json").read_text())

# stand-ins for any field: a wrong type, integral float, bool, numeric
# string, and integers past int64 or below zero
REPLACEMENTS = [None, "x", {}, [], 3.0, True, False, "3", 2**70, -1, -(2**70)]
NOT_INTEGERS = (float, str, bool)
DROP = object()


def paths(obj, prefix=()):
    """Every path from the root to a node of a JSON tree, root excluded."""
    items = obj.items() if isinstance(obj, dict) else enumerate(obj) if isinstance(obj, list) else ()
    for key, child in items:
        yield prefix + (key,)
        yield from paths(child, prefix + (key,))


def mutate(obj, path, replacement):
    """Drop the node at ``path`` (a missing key or a popped row) when
    ``replacement`` is ``DROP``, else put ``replacement`` there.  Returns
    the node that was there."""
    *head, last = path
    for key in head:
        obj = obj[key]
    old = obj[last]
    if replacement is DROP:
        del obj[last]
    else:
        obj[last] = replacement
    return old


def run_main(argv) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    return code, out.getvalue()


@pytest.fixture(scope="module")
def q1r1_tower(tmp_path_factory):
    out = tmp_path_factory.mktemp("fuzz-tower")
    argv = ["gen", "--q", "1", "--r", "1", "--precisions", "1", "2", "2", "--seed", "5"]
    assert run_main([*argv, "--out-dir", str(out), "--format", "json"])[0] == 0
    return json.loads((out / "tower.json").read_text())


def check_mutations(data, obj, commands):
    obj = json.loads(json.dumps(obj))
    for _ in range(data.draw(st.integers(1, 2), label="mutations")):
        path = data.draw(st.sampled_from(list(paths(obj))), label="path")
        replacement = data.draw(st.sampled_from([DROP, *REPLACEMENTS]), label="replacement")
        old = mutate(obj, path, replacement)
    # the last mutation is still in the file, so the loader reads it
    not_an_integer = type(old) is int and isinstance(replacement, NOT_INTEGERS)
    with tempfile.TemporaryDirectory() as tmp:
        file = Path(tmp) / "input.json"
        file.write_text(json.dumps(obj))
        for command in commands:
            code, out = run_main([command, str(file), "--format", "json"])
            assert code in (0, 1, 2, 3)
            json.loads(out)
            if not_an_integer:
                assert code == 2, out


FUZZ = settings(max_examples=500, deadline=2000)


@FUZZ
@given(st.data())
def test_patch_on_a_mutated_tower(q1r1_tower, data):
    check_mutations(data, q1r1_tower, ["patch"])


@FUZZ
@given(st.data())
def test_verify_ha_and_minimize_on_a_mutated_pool_complex(data):
    check_mutations(data, POOL["complexes"][0], ["verify-ha", "minimize"])


@FUZZ
@given(st.data())
def test_invariants_on_a_mutated_pool_module(data):
    check_mutations(data, POOL["modules"][0], ["invariants"])
