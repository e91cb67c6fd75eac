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

Every image is a sign times a Kronecker product over the blocks, and the
images stay in that factored form (:class:`_Factors`) until the last
step.  Generator images are pushed from the decomposition generators back
to the original ones by solving the basis change over GF(2); a product of
Kronecker products with one block layout is the blockwise product, so the
push multiplies the blocks (all at once, as one block-diagonal signed
permutation per image) and the sign of each word comes from the
presentation.  Only then are the order-b arrays formed, once, by
:func:`~qcliff.matrices.stacked_kron`.  A representation is verified
once, densely on those arrays, against every defining relation of the
generators it is returned for: :func:`minimal_images` checks only the
pushed-forward images, and :func:`build_irrep` checks its normal-form
images.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import prod
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .decompose import Decomposition
from .errors import VerificationError
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


class _Factors(NamedTuple):
    """Images ``sign[i]`` times the Kronecker product of their blocks.

    Row ``i`` of ``perm`` / ``signs`` holds the blocks of image ``i`` side
    by side, as one block-diagonal signed permutation of order
    ``sum(sizes)``: block ``t`` fills the columns from ``a_t =
    sum(sizes[:t])`` on, its perm shifted by ``a_t``.  A product of such
    direct sums is the direct sum of the blockwise products, which is what
    a product of Kronecker products with one block layout needs.
    """

    sign: np.ndarray
    perm: np.ndarray
    signs: np.ndarray
    sizes: tuple[int, ...]

    def blocks(self) -> list[tuple[np.ndarray, np.ndarray]]:
        """The ``(m, size_t)`` block arrays, in :func:`stacked_kron`'s order."""
        out, start = [], 0
        for size in self.sizes:
            end = start + size
            out.append((self.perm[:, start:end] - start, self.signs[:, start:end]))
            start = end
        return out


@dataclass(frozen=True)
class Representation:
    """Monomial generator images satisfying ``presentation`` exactly.

    ``generator_images[i]`` is the image of generator ``i`` of
    ``presentation`` -- the decomposition's new generators for the output
    of :func:`build_irrep`, the original generators after
    :func:`pushforward`.  ``character`` records the sign choices made for
    the central generators.  The images that :func:`build_irrep` and
    :func:`pushforward` return also keep their Kronecker factors, which
    only those functions set; ``dataclasses.replace`` and a
    representation built by hand have none.
    """

    order: int
    generator_images: tuple[MonomialMatrix, ...]
    character: tuple[int, ...]
    decomposition: Decomposition
    presentation: AlgebraPresentation
    _factors: Optional[_Factors] = field(default=None, init=False, repr=False, compare=False)

    def verify(self) -> None:
        """Exact re-check of all relations and the transpose law.

        The squares need no check of their own: a signed permutation has
        ``X X^T == I``, so ``X^T == kappa X`` gives ``X X == kappa X X^T ==
        kappa I``.  Given the transpose law, ``X_i X_j == c X_j X_i`` holds
        exactly when ``pair_lambdas`` gives ``c kappa_i kappa_j`` for
        ``(i, j)``.
        """
        P = self.presentation
        imgs = self.generator_images
        if len(imgs) != P.m:
            raise VerificationError("wrong number of generator images")
        for i, img in enumerate(imgs):
            if img.order != self.order:
                raise VerificationError(f"image {i} has order {img.order} != {self.order}")
            if img.transpose() != P.kappa[i] * img:
                raise VerificationError(f"image {i} breaks the transpose law")
        kappa = np.array(P.kappa)
        want = np.outer(kappa, kappa)
        for i, j in P.anticommuting_pairs():
            want[i, j] = -want[i, j]
        bad = np.argwhere(np.triu(pair_lambdas(imgs) != want, 1)).tolist()
        if bad:
            i, j = bad[0]
            raise VerificationError(f"images {i},{j} break the commutation relation")


def character_length(D: Decomposition) -> int:
    """Number of free central sign choices for irreps of ``D``."""
    has_complex = any(c.square == -1 for c in D.centrals)
    return D.r - 1 if has_complex else D.r


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


def _assemble(D: Decomposition, character: tuple[int, ...]) -> _Factors:
    """Unverified irreducible images of the decomposition generators, factored.

    Each block is a dict from generator index to its constant image; the
    blocks are ordered by their smallest generator index, and a generator
    a block leaves out has the identity there.  Checks that the assembled
    order equals ``classify(D).irrep_order``; the relations are left to
    the caller.
    """
    wt = classify(D)
    r = D.r
    neg_centrals = [i for i, c in enumerate(D.centrals) if c.square == -1]
    first_neg = neg_centrals[0] if neg_centrals else None

    quat_ids = [
        t for t, p in enumerate(D.pairs)
        if p.first_square == -1 and p.second_square == -1
    ]
    other_ids = [t for t in range(D.s) if t not in quat_ids]

    def pair_indices(t: int) -> tuple[int, int]:
        return r + 2 * t, r + 2 * t + 1

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
        pair = D.pairs[t]
        squares = (pair.first_square, pair.second_square)
        blocks.append(dict(zip(pair_indices(t), PAIR_BLOCKS[squares])))
    if first_neg is not None and consumed_central is None:
        blocks.append({first_neg: C_MINUS})
    blocks.sort(key=min)

    orders = [next(iter(b.values())).order for b in blocks]
    total = prod(orders)
    if total != wt.irrep_order:
        raise VerificationError(
            f"assembled order {total} differs from irreducible order {wt.irrep_order}"
        )
    m = D.presentation.m
    perm = np.tile(np.arange(sum(orders)), (m, 1))
    signs = np.ones_like(perm)
    start = 0
    for block, size in zip(blocks, orders):
        for gen, img in block.items():
            perm[gen, start:start + size] = img.perm + start
            signs[gen, start:start + size] = img.signs
        start += size

    # Character slots: every central except the reference complex one.
    # Centrals outside every block act by their slot sign: a scalar if
    # they square to +1; remaining complex centrals reuse the reference
    # image up to that sign, since the pair relations force nothing more.
    sign = np.ones(m, dtype=np.int64)
    slots = [i for i in range(r) if i != first_neg]
    covered = set().union(*blocks)
    for k, i in enumerate(slots):
        if i in covered:
            continue
        sign[i] = -1 if character[k] else 1
        if D.centrals[i].square == -1:
            perm[i], signs[i] = perm[first_neg], signs[first_neg]
    return _Factors(sign, perm, signs, tuple(orders))


def _verified(f: _Factors, character: tuple[int, ...], D: Decomposition,
              presentation: AlgebraPresentation) -> Representation:
    """Expand ``f`` to order-b images once and verify them densely."""
    perm, signs = stacked_kron(f.sign, f.blocks())
    rep = Representation(
        order=perm.shape[1],
        generator_images=tuple(MonomialMatrix._closed(p, s) for p, s in zip(perm, signs)),
        character=character,
        decomposition=D,
        presentation=presentation,
    )
    object.__setattr__(rep, "_factors", f)
    rep.verify()
    return rep


def build_irrep(D: Decomposition, character: Sequence[int]) -> Representation:
    """Verified irreducible monomial images of the decomposition generators.

    The images satisfy ``D.normal_presentation()`` and have order exactly
    ``classify(D).irrep_order``.  ``character`` must supply one bit per
    free central sign choice (see :func:`character_length`); bit 1 flips
    the sign of the corresponding central image.  The images are expanded
    from their factors and checked by :meth:`Representation.verify` once;
    :func:`minimal_images` skips both, since :func:`pushforward` makes
    them on the images it returns.
    """
    character = _character(D, character)
    return _verified(_assemble(D, character), character, D, D.normal_presentation())


def _push(D: Decomposition, character: tuple[int, ...], f: _Factors) -> Representation:
    """Images of the original generators from the factored new ones."""
    P = D.presentation
    m = P.m
    inv = D.basis_change.inverse()
    new_gens = D.new_generators
    # holds[i, k]: new generator k is a factor of original generator i
    holds = np.zeros((m, m), dtype=bool)
    sign = np.empty(m, dtype=np.int64)
    for i in range(m):
        coeffs = inv.row_mask(i)
        factors = [k for k in range(m) if (coeffs >> k) & 1]
        word = P.product(new_gens[k] for k in factors)
        if word.mask != 1 << i:
            raise VerificationError(f"basis change inversion failed for generator {i}")
        holds[i, factors] = True
        sign[i] = word.sign
    sign *= np.where(holds, f.sign, 1).prod(axis=1)
    perm = np.tile(np.arange(f.perm.shape[1]), (m, 1))
    signs = np.ones_like(perm)
    # ascending k multiplies every word's factors in its own order
    for k in range(m):
        rows = np.flatnonzero(holds[:, k])
        at = perm[rows]
        perm[rows] = f.perm[k][at]
        signs[rows] *= f.signs[k][at]
    return _verified(_Factors(sign, perm, signs, f.sizes), character, D, P)


def pushforward(R: Representation) -> Representation:
    """Verified images of the original generators of ``R.decomposition``.

    Each original generator is a signed product of the decomposition
    generators; the exponents come from inverting the basis change over
    GF(2) and the sign from the presentation.  The product is formed
    block by block on ``R``'s Kronecker factors, so ``R`` must come from
    :func:`build_irrep`; ``R`` itself need not be verified.

    The one :meth:`Representation.verify` at the end covers everything the
    returned object claims.  It checks every square of P, the transpose
    law and every commutation relation of P on the returned images, so
    they define a representation of the algebra of P.  Its order is
    ``R.order``, which :func:`_assemble` (and so :func:`build_irrep`)
    checks equals ``classify(D).irrep_order``.  Every irreducible of the algebra has
    that order, and every representation is a sum of irreducibles, so a
    representation of that order is irreducible.  No check pins which
    irreducible (the character) it is.
    """
    D = R.decomposition
    if R.presentation != D.normal_presentation():
        raise ValueError("pushforward expects images of the decomposition generators")
    if R._factors is None:
        raise ValueError("pushforward expects the factored images of build_irrep")
    return _push(D, R.character, R._factors)


def minimal_images(P: AlgebraPresentation,
                   character: Optional[Sequence[int]] = None,
                   decomposition: Optional[Decomposition] = None) -> Representation:
    """Decompose, assemble the irrep and push it forward in one call.

    A caller that has already decomposed ``P`` passes the result as
    ``decomposition``.  The normal-form images are never expanded; the
    pushed-forward ones are, once, and verified once by
    :func:`pushforward` on the original generators of ``P``.
    """
    from .decompose import decompose

    if decomposition is None:
        D = decompose(P)
    elif decomposition.presentation is P:
        D = decomposition
    else:
        raise ValueError("decomposition is not of the presentation P")
    character = zero_character(D) if character is None else _character(D, character)
    return _push(D, character, _assemble(D, character))
