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

Generator images are then pushed from the decomposition generators back
to the original ones by solving the basis change over GF(2) and
correcting the sign with exact monomial arithmetic.  A representation is
verified once, against every defining relation of the generators it is
returned for: :func:`minimal_images` checks only the pushed-forward
images, and :func:`build_irrep` checks its normal-form images.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from math import prod
from typing import Optional, Sequence

import numpy as np

from .decompose import Decomposition
from .errors import VerificationError
from .matrices import MonomialMatrix, j2, pair_lambdas, x2, z2
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


@dataclass(frozen=True)
class Representation:
    """Monomial generator images satisfying ``presentation`` exactly.

    ``generator_images[i]`` is the image of generator ``i`` of
    ``presentation`` -- the decomposition's new generators for the output
    of :func:`build_irrep`, the original generators after
    :func:`pushforward`.  ``character`` records the sign choices made for
    the central generators.
    """

    order: int
    generator_images: tuple[MonomialMatrix, ...]
    character: tuple[int, ...]
    decomposition: Decomposition
    presentation: AlgebraPresentation

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


def _assemble(D: Decomposition, character: Sequence[int]) -> Representation:
    """Unverified irreducible images of the decomposition generators.

    Each block is a dict from generator index to its constant image; the
    blocks are tensored in the order of their smallest generator index.
    Checks the character and that the assembled order equals
    ``classify(D).irrep_order``; the relations are left to the caller.
    """
    character = tuple(int(b) for b in character)
    if any(b not in (0, 1) for b in character):
        raise ValueError("character must consist of 0/1 bits")
    if len(character) != character_length(D):
        raise ValueError(
            f"character has length {len(character)}, expected {character_length(D)}"
        )
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
    idents = [MonomialMatrix.identity(n) for n in orders]

    def assemble(gen: int) -> MonomialMatrix:
        return reduce(MonomialMatrix.tensor,
                      (b.get(gen, ident) for b, ident in zip(blocks, idents)))

    # Character slots: every central except the reference complex one.
    slots = [i for i in range(r) if i != first_neg]
    slot_sign = {
        idx: (-1 if character[k] else 1) for k, idx in enumerate(slots)
    }

    images: list[Optional[MonomialMatrix]] = [None] * D.presentation.m
    covered = set().union(*blocks)
    for gen in covered:
        images[gen] = assemble(gen)
    for i in range(r):
        if i in covered:
            continue
        if D.centrals[i].square == 1:
            images[i] = MonomialMatrix.scalar(total, slot_sign[i])
        else:
            # Remaining complex centrals reuse the reference image up to
            # the character sign; the pair relations force nothing more.
            images[i] = slot_sign[i] * images[first_neg]

    return Representation(
        order=total,
        generator_images=tuple(images),
        character=character,
        decomposition=D,
        presentation=D.normal_presentation(),
    )


def build_irrep(D: Decomposition, character: Sequence[int]) -> Representation:
    """Verified irreducible monomial images of the decomposition generators.

    The images satisfy ``D.normal_presentation()`` and have order exactly
    ``classify(D).irrep_order``.  ``character`` must supply one bit per
    free central sign choice (see :func:`character_length`); bit 1 flips
    the sign of the corresponding central image.  The result is checked
    by :meth:`Representation.verify` once; :func:`minimal_images` skips
    that check, since :func:`pushforward` makes it on the images it
    returns.
    """
    rep = _assemble(D, character)
    rep.verify()
    return rep


def pushforward(R: Representation) -> Representation:
    """Verified images of the original generators of ``R.decomposition``.

    Each original generator is a signed product of the decomposition
    generators; the exponents come from inverting the basis change over
    GF(2) and the sign from evaluating that product with exact monomial
    arithmetic.  ``R`` itself need not be verified.

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
    P = D.presentation
    if R.presentation != D.normal_presentation():
        raise ValueError("pushforward expects images of the decomposition generators")
    inv = D.basis_change.inverse()
    new_gens = D.new_generators
    images = []
    for i in range(P.m):
        coeffs = inv.row_mask(i)
        factors = [k for k in range(P.m) if (coeffs >> k) & 1]
        word = P.product(new_gens[k] for k in factors)
        if word.mask != 1 << i:
            raise VerificationError(f"basis change inversion failed for generator {i}")
        img = MonomialMatrix.scalar(R.order, word.sign)
        for k in factors:
            img = img @ R.generator_images[k]
        images.append(img)
    out = Representation(
        order=R.order,
        generator_images=tuple(images),
        character=R.character,
        decomposition=D,
        presentation=P,
    )
    out.verify()
    return out


def minimal_images(P: AlgebraPresentation,
                   character: Optional[Sequence[int]] = None,
                   decomposition: Optional[Decomposition] = None) -> Representation:
    """Decompose, assemble the irrep and push it forward in one call.

    A caller that has already decomposed ``P`` passes the result as
    ``decomposition``.  The images are verified once, by
    :func:`pushforward`, on the original generators of ``P``.
    """
    from .decompose import decompose

    if decomposition is None:
        D = decompose(P)
    elif decomposition.presentation is P:
        D = decomposition
    else:
        raise ValueError("decomposition is not of the presentation P")
    if character is None:
        character = zero_character(D)
    return pushforward(_assemble(D, character))

