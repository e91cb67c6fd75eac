"""Benchmark pool items through the benchmark's own checks.

Each item runs as ``tools/check_goldens.py`` runs every item:
``run.execute`` (the ``qcliff`` command line, in this process),
``run.check_outputs`` (the bench's independent output checks) and
``checks.golden_problems`` (the SHA-256 digests in ``bench/goldens.json``);
then ``run.replay`` runs the traced replay, which must give the same bytes.
The items cover every request kind the bench sends (``classify``,
``represent``, ``solve`` and ``hadamard``), and every ``represent``,
``solve`` and ``hadamard`` item, so their output bytes are pinned here
too.  Of the ``represent`` items only item 0 of each pool also runs
``run.check_outputs`` and the traced replay: the replay re-encodes its
output with ``json.dumps(indent=2)``, about 200 ms per quaternionic item.
Inputs and outputs live under ``tmp_path``; the bench modules are
imported without writing bytecode, so nothing is written under
``bench/``.
"""

from __future__ import annotations

import itertools
import json
import os
import sys

import pytest

BENCH_DIR = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench")

# the sizes of the bench's "random" solve pool and of each represent
# pool, checked against it below
SOLVE_RANDOM = 64
REPRESENT_POOL = 32
REPRESENT_POOLS = ("rep-real", "rep-complex", "rep-quaternion")
# (pool, k) of bench/workloads.pool_item; hadamard -1 is the default spec
ITEMS = {
    "classify/dense/0": ("dense", 0),
    # every represent item, so each representation's written bytes are pinned
    **{f"represent/{pool}/{k}": (pool, k) for pool in REPRESENT_POOLS
       for k in range(REPRESENT_POOL)},
    # every solve item, so each solution's written bytes are pinned
    "solve/plus": ("plus", 0),
    "solve/minus": ("minus", 0),
    **{f"solve/random/{k}": ("random", k) for k in range(SOLVE_RANDOM)},
    # every hadamard item: -1 is the default spec, then the others in
    # the order of bench/workloads.HADAMARD_SPECS
    "hadamard/III-XXX": ("hadamard", -1),
    **{f"hadamard/{spec}": ("hadamard", k) for k, spec in enumerate(
        spec for spec in ("".join(d) + "-" + "".join(o)
                          for d in itertools.product("IZ", repeat=3)
                          for o in itertools.product("XY", repeat=3))
        if spec != "III-XXX")},
}


@pytest.fixture(scope="module")
def bench():
    saved = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    sys.path.insert(0, BENCH_DIR)
    try:
        import checks
        import run
        import workloads
    finally:
        sys.path.remove(BENCH_DIR)
        sys.dont_write_bytecode = saved
    with open(run.GOLDENS, encoding="utf-8") as fh:
        goldens = json.load(fh)
    return run, checks, workloads, goldens


def test_every_solve_item_is_listed(bench):
    _, _, workloads, _ = bench
    assert workloads.POOL_SIZES["random"] == SOLVE_RANDOM
    solve_keys = {item.key for item in workloads.all_pool_items() if item.kind == "solve"}
    assert solve_keys == {key for key in ITEMS if key.startswith("solve/")}
    assert len(solve_keys) == 66


def test_every_hadamard_item_is_listed(bench):
    _, _, workloads, _ = bench
    keys = {item.key for item in workloads.all_pool_items() if item.kind == "hadamard"}
    assert keys == {key for key in ITEMS if key.startswith("hadamard/")}
    assert len(keys) == 64


def test_every_represent_item_is_listed(bench):
    _, _, workloads, _ = bench
    assert all(workloads.POOL_SIZES[pool] == REPRESENT_POOL for pool in REPRESENT_POOLS)
    keys = {item.key for item in workloads.all_pool_items() if item.kind == "represent"}
    assert keys == {key for key in ITEMS if key.startswith("represent/")}
    assert len(keys) == 96


@pytest.mark.parametrize("key", ITEMS)
def test_pool_item_matches_its_golden(bench, tmp_path, key):
    run, checks, workloads, goldens = bench
    item = workloads.pool_item(*ITEMS[key])
    assert item.key == key
    run.write_inputs(str(tmp_path), [item])
    _, outputs, problems = run.execute(item, str(tmp_path))
    assert problems == []
    assert checks.golden_problems(outputs, goldens.get(item.key)) == []
    if item.kind == "represent" and ITEMS[key][1]:
        return
    assert run.check_outputs(item, outputs) == []
    # the traced replay calls the library as the bench's per-layer spans do
    req = run.Request(key)
    run.replay(workloads.Spans(), req, item, str(tmp_path), goldens)
    assert req.problems == []

