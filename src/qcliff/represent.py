"""Minimal monomial representations of a decomposed presentation.

Every factor of the decomposition gets a fixed block of signed
permutation matrices: a rotation for the first central squaring -1, 2x2
blocks for non-quaternionic pairs, and 4x4 quaternion multiplication
operators for the rest; centrals squaring +1 act by a scalar sign.  Two
quaternionic pairs share one 4x4 block (one acting by left, the other by
right multiplication on the quaternion carrier), and a leftover
quaternionic pair shares its block with a complex central the same way.
That fusion is exactly what keeps the assembled Kronecker product at the
minimal order; a matching block structure exists for every Wedderburn
case.  The blocks are module constants, built once at import; their
arrays are read-only.

Every image is a sign times a Kronecker product over the blocks, and a
:class:`Representation` keeps it in that factored form.  Generator images
are pushed from the decomposition generators back to the original ones
by solving the basis change over GF(2); a product of Kronecker products
with one block layout is the blockwise product, so the push multiplies
the blocks (all at once, as one block-diagonal signed permutation per
image) and the sign of each word comes from the presentation.  A
representation is certified once, on its factors, against every defining
relation of the generators it is returned for: :func:`minimal_images`
checks only the pushed-forward images, and :func:`build_irrep` checks its
normal-form images.  The order-b arrays are formed only when read.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from math import prod
from typing import Optional, Sequence

import numpy as np

from .decompose import Decomposition
from .errors import VerificationError
from .gf2 import bit_table, gram_parity, row_masks
from .matrices import MonomialMatrix, j2, pair_lambdas, stacked_kron, x2, z2
from .presentation import AlgebraPresentation
from .structure import classify


# Left and right multiplication by the quaternion units i and j on the
# carrier basis (1, i, j, k).  Left operators commute with right ones.
QUAT_LEFT_I = MonomialMatrix([1, 0, 3, 2], [-1, 1, -1, 1])
QUAT_LEFT_J = MonomialMatrix([2, 3, 0, 1], [-1, 1, 1, -1])
QUAT_RIGHT_I = MonomialMatrix([1, 0, 3, 2], [-1, 1, 1, -1])
QUAT_RIGHT_J = MonomialMatrix([2, 3, 0, 1], [-1, -1, 1, 1])

# Images of one hyperbolic pair, keyed by the squares of its generators.
PAIR_BLOCKS = {
    (1, 1): (z2(), x2()),
    (-1, 1): (j2(), x2()),
    (1, -1): (z2(), j2()),
    (-1, -1): (QUAT_LEFT_I, QUAT_LEFT_J),
}
# Two fused quaternionic pairs: left i, j for the first, right i, j for
# the second.
HH = (QUAT_LEFT_I, QUAT_LEFT_J, QUAT_RIGHT_I, QUAT_RIGHT_J)
# A complex central fused with a quaternionic pair, central image first.
CH = (QUAT_RIGHT_I, QUAT_LEFT_I, QUAT_LEFT_J)
# The first central squaring -1 when no quaternionic pair is left over.
C_MINUS = j2()


@dataclass(frozen=True, eq=False)
class Representation:
    """Monomial generator images satisfying ``presentation`` exactly.

    Image ``i``, of generator ``i`` of ``presentation`` (the new
    generators after :func:`build_irrep`, the original ones after
    :func:`pushforward`), is ``sign[i]`` times the Kronecker product of
    its blocks, the first most significant.  Row ``i`` of ``perm`` /
    ``signs`` holds the blocks side by side, as one block-diagonal signed
    permutation: block ``t`` fills the columns from ``sum(sizes[:t])`` on,
    its perm shifted by as much.  ``character`` records the sign choices
    of the centrals.  :attr:`generator_images` expands the images to
    order ``prod(sizes)`` when first read; equality compares those, since
    a sign can move between the blocks of an image.
    """

    order: int
    sign: np.ndarray
    perm: np.ndarray
    signs: np.ndarray
    sizes: tuple[int, ...]
    character: tuple[int, ...]
    decomposition: Decomposition
    presentation: AlgebraPresentation

    def __post_init__(self) -> None:
        for arr in (self.sign, self.perm, self.signs):
            arr.setflags(write=False)  # generator_images and pair_table are cached from them

    def blocks(self) -> list[tuple[np.ndarray, np.ndarray]]:
        """The ``(m, size_t)`` block arrays, in :func:`stacked_kron`'s order."""
        return [(self.perm[:, a - size:a] - (a - size), self.signs[:, a - size:a])
                for size, a in zip(self.sizes, np.cumsum(self.sizes))]

    @cached_property
    def generator_images(self) -> tuple[MonomialMatrix, ...]:
        """The images expanded to order ``prod(sizes)``, formed on first read.

        The JSON output does not read them: it is written from
        :attr:`sign` and :meth:`blocks`.
        """
        perm, signs = stacked_kron(self.sign, self.blocks())
        return tuple(MonomialMatrix._closed(p, s) for p, s in zip(perm, signs))

    def __eq__(self, other: object) -> bool:
        keys = ("order", "character", "decomposition", "presentation", "generator_images")
        return isinstance(other, Representation) and all(
            getattr(self, k) == getattr(other, k) for k in keys)

    @cached_property
    def pair_table(self) -> np.ndarray:
        """Entry ``[i, j]`` of this ``(m + 1, m + 1)`` table is the ``c`` with
        ``X_i X_j^T == c X_j X_i^T`` (0 if none), ``X_m`` the identity, once
        the blocks are checked to be signed permutations of order ``order``.
        With ``X_i = s_i (x)_t B_it``: a Kronecker product of nonzero matrices
        fixes its factors up to scalars, ``((x)_t P_t)((x)_t Q_t)^T ==
        (x)_t P_t Q_t^T``, and the image signs cancel, so ``c`` exists iff
        every block pair has such a sign, and it is their product: one
        :func:`pair_lambdas` table cut into the blocks.  O(m^2 sum(sizes)),
        formed on first read, read-only like the factors it is read from.
        """
        m, width = self.presentation.m, sum(self.sizes)
        if not (self.sign.shape == (m,) and self.perm.shape == self.signs.shape == (m, width)):
            raise VerificationError("wrong number of generator images")
        if prod(self.sizes) != self.order:
            raise VerificationError(f"blocks {self.sizes} have order {prod(self.sizes)}")
        block = np.repeat(np.arange(len(self.sizes)), self.sizes)
        if (np.any(np.sort(self.perm) != np.arange(width)) or np.any(block[self.perm] != block)
                or np.any(abs(self.signs) != 1) or np.any(abs(self.sign) != 1)):
            raise VerificationError("the blocks are not signed permutations")
        table = pair_lambdas(np.vstack([self.perm, np.arange(width)]),
                             np.vstack([self.signs, np.ones(width, dtype=np.int64)]), self.sizes)
        table.setflags(write=False)
        return table

    def verify(self) -> None:
        """Exact certificate of all relations and the transpose law, from the
        factors: :meth:`pair_table` gives every transpose and pair sign.  The
        squares need no check: ``X X^T == I``, so ``X^T == kappa X`` gives
        ``X X == kappa I``, and ``X_i X_j == c X_j X_i`` holds exactly when
        the pair sign is ``c kappa_i kappa_j``.  O(m^2 sum(sizes)).
        """
        P = self.presentation
        table = self.pair_table
        kappa = np.array(P.kappa)
        bad = np.flatnonzero(table[P.m, :P.m] != kappa).tolist()
        if bad:
            raise VerificationError(f"image {bad[0]} breaks the transpose law")
        want = np.where(bit_table(P._delta_gt, P.m), -1, 1) * np.outer(kappa, kappa)
        bad = np.argwhere(np.triu(table[:P.m, :P.m] != want, 1)).tolist()
        if bad:
            i, j = bad[0]
            raise VerificationError(f"images {i},{j} break the commutation relation")


def character_length(D: Decomposition) -> int:
    """Number of free central sign choices for irreps of ``D``."""
    return D.r - 1 if -1 in D.squares[:D.r] else D.r


def zero_character(D: Decomposition) -> tuple[int, ...]:
    return (0,) * character_length(D)


def _character(D: Decomposition, character: Sequence[int]) -> tuple[int, ...]:
    character = tuple(int(b) for b in character)
    if any(b not in (0, 1) for b in character):
        raise ValueError("character must consist of 0/1 bits")
    if len(character) != character_length(D):
        raise ValueError(
            f"character has length {len(character)}, expected {character_length(D)}"
        )
    return character


def _assemble(D: Decomposition, character: tuple[int, ...]) -> Representation:
    """Unverified irreducible images of the decomposition generators.

    Each block is a dict from generator index to its constant image; the
    blocks are ordered by their smallest generator index, and a generator
    a block leaves out has the identity there.  With no block at all (a
    scalar algebra) every image is its sign times one 1x1 block.  Checks
    that the assembled order equals ``classify(D).irrep_order``; the
    relations are left to the caller.
    """
    wt = classify(D)
    r, squares = D.r, D.squares
    first_neg = squares.index(-1) if -1 in squares[:r] else None

    def pair_indices(t: int) -> tuple[int, int]:
        return r + 2 * t, r + 2 * t + 1

    quat_ids = [t for t in range(D.s) if squares[r + 2 * t] == squares[r + 2 * t + 1] == -1]
    other_ids = [t for t in range(D.s) if t not in quat_ids]

    blocks: list[dict[int, MonomialMatrix]] = []
    for u in range(len(quat_ids) // 2):
        blocks.append(dict(zip(
            pair_indices(quat_ids[2 * u]) + pair_indices(quat_ids[2 * u + 1]), HH
        )))
    leftover = quat_ids[-1] if len(quat_ids) % 2 else None
    consumed_central = None
    if leftover is not None:
        if first_neg is not None:
            blocks.append(dict(zip((first_neg,) + pair_indices(leftover), CH)))
            consumed_central = first_neg
        else:
            blocks.append(dict(zip(pair_indices(leftover), PAIR_BLOCKS[(-1, -1)])))
    for t in other_ids:
        u, v = pair_indices(t)
        blocks.append(dict(zip((u, v), PAIR_BLOCKS[squares[u], squares[v]])))
    if first_neg is not None and consumed_central is None:
        blocks.append({first_neg: C_MINUS})
    blocks.sort(key=min)

    sizes = tuple(next(iter(b.values())).order for b in blocks) or (1,)
    total = prod(sizes)
    if total != wt.irrep_order:
        raise VerificationError(
            f"assembled order {total} differs from irreducible order {wt.irrep_order}"
        )
    m = D.presentation.m
    perm = np.tile(np.arange(sum(sizes)), (m, 1))
    signs = np.ones_like(perm)
    start = 0
    for block, size in zip(blocks, sizes):
        for gen, img in block.items():
            perm[gen, start:start + size] = img.perm + start
            signs[gen, start:start + size] = img.signs
        start += size

    # Character slots: every central except the reference complex one.
    # The blocks hold only pair generators and first_neg, so every slot
    # acts by its sign: a scalar if it squares to +1; the other complex
    # centrals reuse the reference image up to that sign, since the pair
    # relations force nothing more.
    sign = np.ones(m, dtype=np.int64)
    slots = [i for i in range(r) if i != first_neg]
    for k, i in enumerate(slots):
        sign[i] = -1 if character[k] else 1
        if squares[i] == -1:
            perm[i], signs[i] = perm[first_neg], signs[first_neg]
    return Representation(total, sign, perm, signs, sizes, character, D,
                          D.normal_presentation())


def build_irrep(D: Decomposition, character: Sequence[int]) -> Representation:
    """Verified irreducible monomial images of the decomposition generators.

    The images satisfy ``D.normal_presentation()`` and have order exactly
    ``classify(D).irrep_order``.  ``character`` must supply one bit per
    free central sign choice (see :func:`character_length`); bit 1 flips
    the sign of the corresponding central image.  The images are checked
    by :meth:`Representation.verify` once; :func:`minimal_images` skips
    that, since :func:`pushforward` checks the images it returns.
    """
    rep = _assemble(D, _character(D, character))
    rep.verify()
    return rep


def pushforward(R: Representation) -> Representation:
    """Verified images of the original generators of ``R.decomposition``
    from ``R``, images of its generators of order ``classify(D).irrep_order``
    that need not be verified.

    Row ``S_i`` of the inverse basis change picks the new generators
    ``g_k1 ... g_kt`` (ascending) whose product is original generator
    ``i``; that the product's mask is bit ``i`` is checked as ``inv . G ==
    I`` over GF(2).  The product is formed block by block on ``R``'s
    Kronecker factors.  Its sign is ``sum_{a<b} Q[k_b, k_a]`` for the
    product-sign Gram ``Q`` of the new generators (:attr:`Decomposition.gram`).
    The sign of ``(+1, x)(+1, y)`` is ``y^T M x``, bilinear in the masks,
    and the prefix ``g_k1 ... g_k(b-1)`` has mask ``sum_{a<b} g_ka``
    whatever its sign, so multiplying it by ``g_kb`` adds ``sum_{a<b}
    Q[k_b, k_a]``.  For all words at once that is ``S_i^T L S_i``, ``L``
    the strict lower triangle of ``Q``: one Gram product of the rows of
    ``S`` against those of ``L``, ANDed with ``S``.

    The one :meth:`Representation.verify` at the end certifies every
    square, the transpose law and every commutation relation of P for the
    returned images, so they define a representation of the algebra of P.
    Every representation is a sum of irreducibles, all of the order
    checked here, so one of that order is irreducible.  No check pins
    which irreducible (the character) it is.
    """
    D = R.decomposition
    if R.presentation != D.normal_presentation():
        raise ValueError("pushforward expects images of the decomposition generators")
    if R.order != classify(D).irrep_order:
        raise ValueError(f"pushforward expects an irreducible, not order {R.order}")
    P = D.presentation
    m = P.m
    inv = D.basis_change.inverse().bits
    # holds[i, k]: new generator k is a factor of original generator i
    holds = bit_table(inv, m)
    wrong = gram_parity(inv, row_masks(bit_table(D.masks, m).T), m) != np.eye(m, dtype=np.uint8)
    if wrong.any():
        raise VerificationError(
            f"basis change inversion failed for generator {int(np.argmax(wrong.any(axis=1)))}")
    lower = row_masks(np.tril(D.gram, -1))
    odd = (gram_parity(inv, lower, m) & holds).sum(axis=1) & 1
    sign = np.where(odd, -1, 1) * np.where(holds, R.sign, 1).prod(axis=1)
    perm = np.tile(np.arange(R.perm.shape[1]), (m, 1))
    signs = np.ones_like(perm)
    # ascending k multiplies every word's factors in its own order
    for k in range(m):
        rows = np.flatnonzero(holds[:, k])
        at = perm[rows]
        perm[rows] = R.perm[k][at]
        signs[rows] *= R.signs[k][at]
    rep = Representation(R.order, sign, perm, signs, R.sizes, R.character, D, P)
    rep.verify()
    return rep


def minimal_images(P: AlgebraPresentation,
                   character: Optional[Sequence[int]] = None,
                   decomposition: Optional[Decomposition] = None) -> Representation:
    """Decompose, assemble the irrep and push it forward in one call.

    A caller that has already decomposed ``P`` passes the result as
    ``decomposition``.  The images are verified once, by
    :func:`pushforward` on the original generators of ``P``, and not
    expanded: that waits for a read of ``generator_images``.
    """
    from .decompose import decompose

    if decomposition is None:
        D = decompose(P)
    elif decomposition.presentation is P:
        D = decomposition
    else:
        raise ValueError("decomposition is not of the presentation P")
    character = zero_character(D) if character is None else _character(D, character)
    return pushforward(_assemble(D, character))
