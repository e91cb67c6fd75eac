"""Seeded inputs, command lines and traced layer replays of the workloads.

Every input comes from a fixed pool: item ``k`` of a pool is generated
from ``POOL_SEED`` and ``k`` alone, so the golden digests recorded for the
pool cover every request a run can make.  The run seed chooses the pool
items a run sends and their order.  A workload is a repeating cycle of
request kinds, so every run sends the same mix whatever its seed.

Input files are written here with the standard ``json`` module in the
documented file formats; ``qcliff.serialize`` is never used to make them.
"""

from __future__ import annotations

import itertools
import json
import os
import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass

import numpy as np

from qcliff.decompose import decompose, form_matrix, symplectic_reduce
from qcliff.hadamard import (
    HadamardBundle,
    TransversalSpec,
    lambda_of_transversal,
    plug_in,
    run_checks,
    transversal,
    verify_bundle,
)
from qcliff.matrices import DenseSignMatrix, sylvester
from qcliff.represent import build_irrep, minimal_images, pushforward, zero_character
from qcliff.serialize import (
    bundle_from_dict,
    bundle_to_dict,
    lambda_from_dict,
    presentation_from_dict,
    report_to_dict,
    representation_to_dict,
    solve_result_to_dict,
    wedderburn_to_dict,
)
from qcliff.solve import presentation_from, solve, verify_solution
from qcliff.structure import classify, classify_presentation

POOL_SEED = 180409454

HADAMARD_M = 3
# Sizes give an algebra run of 60 s over 100 requests, so that its
# 90th percentile has at least ten samples beyond it.
SOLVE_N = 13
CLASSIFY_M = 144
REPRESENT_M = 24
SPARSE_DENSITY = 0.02

DEFAULT_SPEC = "I" * HADAMARD_M + "-" + "X" * HADAMARD_M
# Every non-default transversal spec; a run pairs one with the default.
HADAMARD_SPECS = tuple(
    spec for spec in ("".join(d) + "-" + "".join(o)
                      for d in itertools.product("IZ", repeat=HADAMARD_M)
                      for o in itertools.product("XY", repeat=HADAMARD_M))
    if spec != DEFAULT_SPEC)

# Pool ids seed the items; append new pools at the end to keep old items.
POOL_SIZES = {"random": 64, "dense": 32, "sparse": 32, "clifford": 16, "commuting": 16,
              "rep-real": 32, "rep-complex": 32, "rep-quaternion": 32}

# One cycle of request kinds per workload; the seed fills in pool items.
CYCLES = {
    "hadamard": ("hadamard",),
    # Classify, represent and solve requests.  Sorted by latency, a cycle
    # is five cheap requests (commuting, sparse, real and complex represent,
    # constant +1 solve), six of about the same latency (random and -1
    # solve, quaternion represent), then three dear ones (tensor, dense,
    # Clifford), so the median falls inside a group of similar requests
    # rather than in a gap between two groups, and the 90th percentile
    # among the dense requests, between the tensor and Clifford ones.
    "algebra": ("dense", "random", "rep-real", "commuting", "random", "rep-quaternion",
                "sparse", "minus", "clifford", "rep-complex", "random", "rep-quaternion",
                "plus", "tensor"),
}

# Cycles whose inputs are generated before the first request (set-up).
SETUP_CYCLES = {"hadamard": 1, "algebra": 2}

WORKLOAD_IDS = {"hadamard": 1, "algebra": 3}


@dataclass(frozen=True)
class Item:
    """One request: ``key`` names its pool item, ``data`` is its input."""

    key: str
    kind: str
    data: object


# -- pool items ----------------------------------------------------------------


def _rng(pool: str, k: int) -> np.random.Generator:
    return np.random.default_rng([POOL_SEED, list(POOL_SIZES).index(pool), k])


def _signs(rng: np.random.Generator, size: int) -> list[int]:
    return [int(v) for v in rng.choice([-1, 1], size=size)]


def _presentation(kappa: list[int], anti) -> dict:
    return {"m": len(kappa), "kappa": kappa,
            "delta": [[i + 1, j + 1, 1] for i, j in anti]}


def _random_anti(rng: np.random.Generator, m: int, density: float):
    iu, ju = np.triu_indices(m, 1)
    hit = rng.random(iu.size) < density
    return zip(iu[hit].tolist(), ju[hit].tolist())


def _rank(rows: list[int]) -> int:
    rank = 0
    rows = [r for r in rows if r]
    while rows:
        pivot = rows.pop()
        low = pivot & -pivot
        rows = [r ^ pivot if r & low else r for r in rows]
        rows = [r for r in rows if r]
        rank += 1
    return rank


def _fixed_type(rng: np.random.Generator, case: str, m: int) -> dict:
    """Random presentation of an algebra of a chosen Wedderburn case.

    Start from a normal form: ``r`` central generators, then hyperbolic
    pairs, with random squares (real: no central, an even number of pairs
    squaring to (-1, -1); quaternion: an odd number; complex: two centrals,
    one squaring to -1).  Then take the generators ``x_i = prod_j e_j^T[i,j]``
    for a random invertible GF(2) matrix ``T``.  They generate the same
    algebra, so the irreducible order is fixed by the case while the
    presentation is random.  For ``x = e_j1 ... e_jk`` the square is
    ``prod kappa_j`` times -1 per anticommuting pair inside ``x``; ``x`` and
    ``y`` anticommute when an odd number of pairs (one generator from each)
    anticommute.
    """
    r = 2 if case == "complex" else 0
    s = (m - r) // 2
    pair_squares = [tuple(_signs(rng, 2)) for _ in range(s)]
    quaternionic = sum(1 for p in pair_squares if p == (-1, -1))
    if (case == "quaternion") != bool(quaternionic % 2):
        pair_squares[-1] = (1, 1) if pair_squares[-1] == (-1, -1) else (-1, -1)
    squares = ([-1, int(rng.choice([-1, 1]))] if r else []) + [x for p in pair_squares for x in p]
    while True:
        T = [int(v) for v in rng.integers(0, 1 << m, size=m)]
        if _rank(T) == m:
            break
    pair_masks = [(1 << (r + 2 * t)) | (1 << (r + 2 * t + 1)) for t in range(s)]
    low_bits = sum(1 << (r + 2 * t) for t in range(s))

    def square(u: int) -> int:
        sign = -1 if sum(1 for j in range(m) if u >> j & 1 and squares[j] < 0) % 2 else 1
        return -sign if sum(1 for pm in pair_masks if u & pm == pm) % 2 else sign

    def anticommute(u: int, v: int) -> bool:
        swapped = ((v & low_bits) << 1) | ((v >> 1) & low_bits)
        return bool((u & swapped).bit_count() % 2)

    return _presentation([square(u) for u in T],
                         ((i, j) for i in range(m) for j in range(i + 1, m)
                          if anticommute(T[i], T[j])))


def _lambda(n: int, values) -> dict:
    pairs = [(j, k) for j in range(n) for k in range(j + 1, n)]
    return {"n": n, "entries": [[j + 1, k + 1, v] for (j, k), v in zip(pairs, values)]}


def pool_item(pool: str, k: int) -> Item:
    """Item ``k`` of ``pool``; depends on nothing but its arguments."""
    if pool == "hadamard":
        spec = DEFAULT_SPEC if k < 0 else HADAMARD_SPECS[k]
        return Item(f"hadamard/{spec}", "hadamard", spec)
    npairs = SOLVE_N * (SOLVE_N - 1) // 2
    if pool in ("plus", "minus"):
        value = 1 if pool == "plus" else -1
        return Item(f"solve/{pool}", "solve", _lambda(SOLVE_N, [value] * npairs))
    rng = _rng(pool, k) if pool in POOL_SIZES else None
    key = f"{pool}/{k}"
    if pool == "random":
        return Item(f"solve/{key}", "solve", _lambda(SOLVE_N, _signs(rng, npairs)))
    m = CLASSIFY_M
    if pool == "dense":
        data = _presentation(_signs(rng, m), _random_anti(rng, m, 0.5))
    elif pool == "sparse":
        data = _presentation(_signs(rng, m), _random_anti(rng, m, SPARSE_DENSITY))
    elif pool == "clifford":
        # p near m costs about 1.5 times as much; the middle half keeps
        # every p mod 8, so every Wedderburn case, at an even cost.
        p = int(rng.integers(m // 4, 3 * m // 4 + 1))
        data = _presentation([1] * p + [-1] * (m - p),
                             ((i, j) for i in range(m) for j in range(i + 1, m)))
    elif pool == "tensor":
        kappa = [1] * (m // 2) + [-1] * (m - m // 2)
        data = _presentation(kappa, ((i, j) for i in range(m) for j in range(i + 1, m)
                                     if kappa[i] == kappa[j]))
        key = "tensor"
    elif pool == "commuting":
        data = _presentation(_signs(rng, m), ())
    elif pool.startswith("rep-"):
        data = _fixed_type(rng, pool[4:], REPRESENT_M)
        return Item(f"represent/{key}", "represent", data)
    else:
        raise ValueError(f"unknown pool {pool!r}")
    return Item(f"classify/{key}", "classify", data)


def all_pool_items() -> list[Item]:
    """Every item any run can send, for recording golden digests."""
    items = [pool_item("hadamard", k) for k in range(-1, len(HADAMARD_SPECS))]
    items += [pool_item("plus", 0), pool_item("minus", 0), pool_item("tensor", 0)]
    for pool, size in POOL_SIZES.items():
        items += [pool_item(pool, k) for k in range(size)]
    return items


class Sequence:
    """The seeded request order of one run, generated one cycle at a time."""

    def __init__(self, workload: str, seed: int):
        self.kinds = CYCLES[workload]
        rng = np.random.default_rng([seed, WORKLOAD_IDS[workload]])
        self.perms = {pool: rng.permutation(size) for pool, size in POOL_SIZES.items()}
        self.spec = int(rng.integers(len(HADAMARD_SPECS)))
        self.phase = int(rng.integers(2))

    def cycle(self, c: int) -> list[Item]:
        out = []
        for t, pool in enumerate(self.kinds):
            if pool == "hadamard":
                out.append(pool_item(pool, self.spec if (c + self.phase) % 2 else -1))
                continue
            uses = self.kinds.count(pool)
            nth = self.kinds[:t].count(pool)
            perm = self.perms.get(pool)
            k = 0 if perm is None else int(perm[(c * uses + nth) % len(perm)])
            out.append(pool_item(pool, k))
        return out


# -- files and command lines ---------------------------------------------------


def input_path(workdir: str, item: Item) -> str:
    return os.path.join(workdir, item.key.replace("/", "-") + ".json")


def write_input(workdir: str, item: Item) -> None:
    if item.kind == "hadamard":
        return
    with open(input_path(workdir, item), "w", encoding="utf-8") as fh:
        json.dump(item.data, fh)


def bundle_path(workdir: str) -> str:
    return os.path.join(workdir, "bundle.json")


def commands(workdir: str, item: Item) -> list[list[str]]:
    """The ``qcliff`` argument lists one request runs, in order."""
    if item.kind == "hadamard":
        diag, offdiag = item.data.split("-")
        spec = [] if item.data == DEFAULT_SPEC else ["--diag", diag, "--offdiag", offdiag]
        out = bundle_path(workdir)
        return [["hadamard", str(HADAMARD_M), *spec, "--output", out, "--format", "json"],
                ["verify", out, "--format", "json"]]
    return [[item.kind, input_path(workdir, item), "--format", "json"]]


def output_files(workdir: str, item: Item) -> dict[str, str]:
    """Files a request writes, by the name its golden digest is stored under."""
    return {"B.json": bundle_path(workdir)} if item.kind == "hadamard" else {}


# -- traced replays ------------------------------------------------------------


class Spans:
    """Span recorder for the traced run; spans stay in memory until the end.

    Each span records its id, name, request, the id of the span that
    encloses it (None at the top of a request), and start and end times
    relative to the recorder's creation.
    """

    def __init__(self):
        self.t0 = time.perf_counter()
        self.records: list[dict] = []
        self.values: dict[str, float] = {}
        self.request = -1
        self._stack: list[int] = []
        self._next_id = 0

    def begin_request(self) -> None:
        self.request += 1
        self.values = {}

    @contextmanager
    def __call__(self, name: str):
        span_id, self._next_id = self._next_id, self._next_id + 1
        parent = self._stack[-1] if self._stack else None
        self._stack.append(span_id)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.records.append({"id": span_id, "request": self.request, "name": name,
                                 "parent": parent, "start": start - self.t0,
                                 "end": end - self.t0})
            self.values[name] = self.values.get(name, 0.0) + (end - start)

    def set(self, name: str, value: float) -> None:
        self.values[name] = value


def NO_SPANS(name: str):  # noqa: N802  (used like a Spans instance)
    """Recorder that records nothing; the primary sequences run with it to
    time the same calls without tracing."""
    return nullcontext()


def _dump(obj: dict) -> bytes:
    return (json.dumps(obj, indent=2) + "\n").encode()


def _load(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _replay_solution(lam, sol, sp: Spans) -> None:
    """Replays, on the winning kappa, the three calls that follow the sweep."""
    pres = presentation_from(lam, sol.kappa)
    with sp("structure.classify_presentation_replay_s"):
        classify_presentation(pres)
    with sp("represent.minimal_images_replay_s"):
        minimal_images(pres)
    with sp("solve.verify_solution_replay_s"):
        verify_solution(lam, sol)
    rest = sum(sp.values[name] for name in ("structure.classify_presentation_replay_s",
                                             "represent.minimal_images_replay_s",
                                             "solve.verify_solution_replay_s"))
    sp.set("solve.sweep_derived_s", sp.values["solve.solve_s"] - rest)
    sp.set("solve.n", lam.n)
    sp.set("solve.b", sol.b)


def _primary_hadamard(workdir, item, sp):
    diag, offdiag = item.data.split("-")
    if item.data == DEFAULT_SPEC:
        spec = TransversalSpec.default(HADAMARD_M)
    else:
        spec = TransversalSpec.from_strings(diag, offdiag)
    with sp("hadamard.transversal_s"):
        A = transversal(spec)
    with sp("hadamard.lambda_of_transversal_s"):
        lam = lambda_of_transversal(A)
    with sp("solve.solve_s"):
        sol = solve(lam)
    with sp("matrices.sylvester_s"):
        S = sylvester(sol.b)
    with sp("hadamard.densify_s"):
        B = tuple(DenseSignMatrix(d.mul_dense(S.array)) for d in sol.D)
    with sp("hadamard.plug_in_s"):
        H = plug_in(A, B)
    with sp("hadamard.run_checks_s"):
        report = run_checks(A, lam, B, H)
    if not report.passed:
        raise RuntimeError(f"bundle verification failed: {report.failures()}")
    bundle = HadamardBundle(n=len(A), b=sol.b, A=tuple(A), lam=lam, D=sol.D,
                            S=S, B=B, H=H, report=report)
    with sp("serialize.bundle_to_dict_s"):
        obj = bundle_to_dict(bundle)
    path = bundle_path(workdir)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, indent=2)
        fh.write("\n")
    out = {"hadamard.stdout": _dump(report_to_dict(report))}
    stored = _load(path)
    with sp("serialize.bundle_from_dict_s"):
        loaded = bundle_from_dict(stored)
    with sp("hadamard.verify_bundle_s"):
        checked = verify_bundle(loaded)
    out["verify.stdout"] = _dump(report_to_dict(checked.report))
    with open(path, "rb") as fh:
        out["B.json"] = fh.read()
    return out, (A, lam, sol, B, H)


def _extra_hadamard(state, sp):
    A, lam, sol, B, H = state
    Ht = H.transpose()
    with sp("run_checks.hadamard_gram_replay_s"):
        H @ Ht
    Bt = [x.transpose() for x in B]
    with sp("run_checks.b_grams_replay_s"):
        [[bj @ bkt for bkt in Bt] for bj in B]
    with sp("run_checks.h_matches_terms_replay_s"):
        plug_in(A, B) == H
    _replay_solution(lam, sol, sp)
    n, b = len(A), sol.b
    order = n * b
    madds = order**3 + n * n * b**3
    sp.set("run_checks.madds", madds)
    sp.set("run_checks.madds_per_s", madds / sp.values["hadamard.run_checks_s"])
    sp.set("hadamard.order", order)
    sp.set("hadamard.b", b)


def _primary_solve(workdir, item, sp):
    obj = _load(input_path(workdir, item))
    with sp("serialize.lambda_from_dict_s"):
        lam = lambda_from_dict(obj)
    with sp("solve.solve_s"):
        sol = solve(lam)
    with sp("serialize.solve_result_to_dict_s"):
        result = solve_result_to_dict(lam, sol)
    return {"stdout": _dump(result)}, (lam, sol)


def _extra_solve(state, sp):
    _replay_solution(*state, sp)


def _primary_classify(workdir, item, sp):
    obj = _load(input_path(workdir, item))
    with sp("serialize.presentation_from_dict_s"):
        P = presentation_from_dict(obj)
    with sp("decompose.decompose_s"):
        D = decompose(P)
    with sp("structure.classify_s"):
        wt = classify(D)
    return {"stdout": _dump(wedderburn_to_dict(wt))}, (P, D)


def _extra_classify(state, sp):
    P, D = state
    with sp("decompose.form_matrix_s"):
        F = form_matrix(P)
    with sp("decompose.symplectic_reduce_s"):
        symplectic_reduce(tuple(F.bits), P.m)
    with sp("decompose.validate_s"):
        D.validate()
    gens = D.new_generators
    pairs = [(gens[i], gens[j]) for i in range(len(gens)) for j in range(i + 1, len(gens))]
    start = time.perf_counter()
    for x, y in pairs:
        P.commutation_sign(x, y)
    if pairs:
        sp.set("presentation.commutation_sign_ns",
               (time.perf_counter() - start) / len(pairs) * 1e9)
    sp.set("decompose.m", P.m)
    sp.set("decompose.r", D.r)
    sp.set("decompose.s", D.s)


def _primary_represent(workdir, item, sp):
    P = presentation_from_dict(_load(input_path(workdir, item)))
    D = decompose(P)
    character = zero_character(D)
    with sp("represent.build_irrep_s"):
        R = build_irrep(D, character)
    with sp("represent.pushforward_s"):
        rep = pushforward(R)
    with sp("serialize.representation_to_dict_s"):
        out = representation_to_dict(rep)
    out["wedderburn"] = wedderburn_to_dict(classify(D))
    return {"stdout": _dump(out)}, (D, rep)


def _extra_represent(state, sp):
    D, rep = state
    with sp("represent.verify_s"):
        rep.verify()
    with sp("gf2.inverse_s"):
        D.basis_change.inverse()
    sp.set("represent.order", rep.order)


# Per request kind: the public layer calls the subcommand makes, each in a
# span (primary, timed as the traced request), then the calls the
# subcommand makes only inside another call, replayed on the same objects.
REPLAYS = {
    "hadamard": (_primary_hadamard, _extra_hadamard),
    "solve": (_primary_solve, _extra_solve),
    "classify": (_primary_classify, _extra_classify),
    "represent": (_primary_represent, _extra_represent),
}
