import itertools
import json
from dataclasses import replace

import numpy as np
import pytest

from qcliff import (
    AlgebraPresentation,
    LambdaPattern,
    MonomialMatrix,
    VerificationError,
    minimal_images,
    represent,
)
from qcliff.cli import main
from qcliff.decompose import decompose
from qcliff.matrices import j2, pair_lambdas, x2, z2
from qcliff.presentation import clifford_presentation, quaternion_presentation
from qcliff.represent import (
    C_MINUS,
    CH,
    HH,
    PAIR_BLOCKS,
    QUAT_LEFT_I,
    QUAT_LEFT_J,
    QUAT_RIGHT_I,
    QUAT_RIGHT_J,
    Representation,
    build_irrep,
    character_length,
    pushforward,
    zero_character,
)
from qcliff.serialize import presentation_to_dict
from qcliff.solve import solve
from qcliff.structure import classify, tensor_presentation

from helpers import (
    all_characters,
    all_presentations,
    dense,
    pushforward_by_products,
    random_presentation,
    tensor,
    tensor_with_identity,
)


def quat_table_oracle():
    """Quaternion multiplication table as an 8-symbol signed group."""
    # elements 0..3 = 1,i,j,k; value (sign, index)
    table = {}
    names = ["1", "i", "j", "k"]
    rules = {
        ("i", "i"): (-1, "1"), ("j", "j"): (-1, "1"), ("k", "k"): (-1, "1"),
        ("i", "j"): (1, "k"), ("j", "i"): (-1, "k"),
        ("j", "k"): (1, "i"), ("k", "j"): (-1, "i"),
        ("k", "i"): (1, "j"), ("i", "k"): (-1, "j"),
    }
    for a in names:
        for b in names:
            if a == "1":
                table[(a, b)] = (1, b)
            elif b == "1":
                table[(a, b)] = (1, a)
            else:
                table[(a, b)] = rules[(a, b)]
    return names, table


def test_left_right_blocks_match_the_multiplication_table():
    names, table = quat_table_oracle()
    mats = {"i": (QUAT_LEFT_I, QUAT_RIGHT_I), "j": (QUAT_LEFT_J, QUAT_RIGHT_J)}
    for unit, (left, right) in mats.items():
        ldense, rdense = dense(left), dense(right)
        for col, basis in enumerate(names):
            lsign, lout = table[(unit, basis)]
            assert ldense[names.index(lout), col] == lsign
            assert np.count_nonzero(ldense[:, col]) == 1
            rsign, rout = table[(basis, unit)]
            assert rdense[names.index(rout), col] == rsign


def assert_block_relations(images, squares, anticommuting):
    """Each image squares to its sign times I; a pair of images
    anticommutes iff it is listed, and commutes otherwise."""
    ident = MonomialMatrix.identity(images[0].order)
    for img, square in zip(images, squares, strict=True):
        assert img @ img == square * ident
    for a in range(len(images)):
        for b in range(a + 1, len(images)):
            sign = -1 if (a, b) in anticommuting else 1
            assert images[a] @ images[b] == sign * (images[b] @ images[a])


class TestFactorBlocks:
    def test_symmetric_pair_block(self):
        assert PAIR_BLOCKS[(1, 1)] == (z2(), x2())
        assert_block_relations(PAIR_BLOCKS[(1, 1)], (1, 1), {(0, 1)})

    @pytest.mark.parametrize("squares", [(-1, 1), (1, -1)])
    def test_mixed_pair_blocks(self, squares):
        assert_block_relations(PAIR_BLOCKS[squares], squares, {(0, 1)})

    def test_quaternionic_block(self):
        assert PAIR_BLOCKS[(-1, -1)] == (QUAT_LEFT_I, QUAT_LEFT_J)
        assert_block_relations(PAIR_BLOCKS[(-1, -1)], (-1, -1), {(0, 1)})

    def test_fused_double_quaternionic_block(self):
        # left i, j anticommute, right i, j anticommute, left and right commute
        assert HH == (QUAT_LEFT_I, QUAT_LEFT_J, QUAT_RIGHT_I, QUAT_RIGHT_J)
        assert_block_relations(HH, (-1,) * 4, {(0, 1), (2, 3)})

    def test_fused_complex_quaternionic_block(self):
        # the central image commutes with the pair images
        assert CH == (QUAT_RIGHT_I, QUAT_LEFT_I, QUAT_LEFT_J)
        assert_block_relations(CH, (-1,) * 3, {(1, 2)})

    def test_complex_rotation(self):
        assert_block_relations((C_MINUS,), (-1,), set())

    def test_constants_are_read_only(self):
        blocks = [*PAIR_BLOCKS.values(), HH, CH, (C_MINUS,)]
        for img in (img for block in blocks for img in block):
            assert not img.perm.flags.writeable and not img.signs.flags.writeable


class TestBuildIrrep:
    def test_quaternions_get_left_multiplications(self):
        D = decompose(quaternion_presentation())
        rep = build_irrep(D, ())
        assert rep.order == 4
        assert rep.generator_images == (QUAT_LEFT_I, QUAT_LEFT_J)

    def test_one_plus_generator_has_two_scalar_characters(self):
        D = decompose(AlgebraPresentation((1,)))
        r0 = build_irrep(D, (0,))
        r1 = build_irrep(D, (1,))
        assert r0.order == r1.order == 1
        assert r0.generator_images[0].signs.tolist() == [1]
        assert r1.generator_images[0].signs.tolist() == [-1]

    def test_mixed_commuting_pair(self):
        D = decompose(tensor_presentation(1, 1))
        assert character_length(D) == 1
        reps = [build_irrep(D, ch) for ch in all_characters(D)]
        assert len(reps) == 2
        assert all(rep.order == 2 for rep in reps)
        images = {tuple(rep.generator_images[0].signs.tolist()) for rep in reps}
        assert len(images) == 2

    def test_character_length_enforced(self):
        D = decompose(quaternion_presentation())
        with pytest.raises(ValueError):
            build_irrep(D, (0,))

    def test_character_bits_enforced(self):
        D = decompose(AlgebraPresentation((1,)))
        with pytest.raises(ValueError):
            build_irrep(D, (2,))


class TestPushforward:
    def test_identity_basis_change_passes_through(self):
        D = decompose(quaternion_presentation())
        rep = build_irrep(D, ())
        assert D.basis_change.to_rows() == [[1, 0], [0, 1]]
        pushed = pushforward(rep)
        assert pushed.generator_images == rep.generator_images

    def test_three_plus_generators_reconstruct(self):
        P = clifford_presentation(3, 0)
        rep = minimal_images(P)
        ident = MonomialMatrix.identity(rep.order)
        img = rep.generator_images[0]
        assert img @ img == ident

    def test_rejects_already_pushed_representation(self):
        rep = minimal_images(clifford_presentation(3, 0))
        with pytest.raises(ValueError):
            pushforward(rep)


def block_families(rep):
    """Per block, the family of its ``m`` factor rows as monomial matrices."""
    return [[MonomialMatrix._closed(p, s) for p, s in zip(perm, signs)]
            for perm, signs in rep._factors.blocks()]


class TestFactoredPath:
    def test_pushforward_matches_products_of_the_expanded_images(self):
        # every presentation up to m = 3 with every character, then seeded
        # ones at m = 4..8 with up to 4 characters each: only those reach
        # the fused HH block, which needs two quaternionic pairs
        rng = np.random.default_rng(1013)
        exhaustive = (P for m in range(1, 4) for P in all_presentations(m))
        seeded = (random_presentation(rng, m) for m in range(4, 9) for _ in range(12))
        fused_ch = reused_complex = fused_hh = 0
        for P in itertools.chain(exhaustive, seeded):
            D = decompose(P)
            neg = sum(c.square == -1 for c in D.centrals)
            quat = sum(p.first_square == p.second_square == -1 for p in D.pairs)
            fused_ch += neg > 0 and quat % 2 == 1
            reused_complex += neg > 1
            fused_hh += quat >= 2
            characters = list(all_characters(D))
            if P.m > 3 and len(characters) > 4:
                characters = [characters[i] for i in rng.choice(len(characters), 4, replace=False)]
            for ch in characters:
                R = build_irrep(D, ch)
                pushed = pushforward(R)
                assert pushed.generator_images == pushforward_by_products(R)
                assert pushed == minimal_images(P, ch, D)
        assert fused_ch and reused_complex and fused_hh

    def test_pair_signs_are_the_product_of_the_block_pair_signs(self):
        for m in range(1, 4):
            for P in all_presentations(m):
                D = decompose(P)
                for rep in (build_irrep(D, zero_character(D)), minimal_images(P, None, D)):
                    lam = np.ones((m, m), dtype=np.int64)
                    for family in block_families(rep):
                        lam *= pair_lambdas(family)
                    upper = np.triu_indices(m, 1)
                    assert np.array_equal(lam[upper], pair_lambdas(rep.generator_images)[upper])

    def test_pushforward_refuses_images_without_factors(self):
        D = decompose(RANDOM5)
        R = build_irrep(D, zero_character(D))
        for bare in (tensor_with_identity(R, 2), replace(R, character=R.character)):
            with pytest.raises(ValueError, match="factored"):
                pushforward(bare)


class TestSoundnessSweep:
    def test_every_presentation_and_character_up_to_m3(self):
        for m in range(1, 4):
            for P in all_presentations(m):
                D = decompose(P)
                wt = classify(D)
                count = 0
                for ch in all_characters(D):
                    rep = pushforward(build_irrep(D, ch))
                    rep.verify()
                    assert rep.order == wt.irrep_order
                    count += 1
                assert count == wt.num_irreps

    def test_transpose_law(self):
        for m in range(1, 4):
            for P in all_presentations(m):
                rep = minimal_images(P)
                for i, img in enumerate(rep.generator_images):
                    assert img.transpose() == P.kappa[i] * img

    def test_seeded_sample_at_m5(self):
        # beyond the exhaustive m<=4 sweep: the classifier's counts and
        # orders stay consistent with actually constructing the
        # representations
        rng = np.random.default_rng(101)
        for _ in range(150):
            P = random_presentation(rng, 5)
            D = decompose(P)
            wt = classify(D)
            assert wt.total_dimension() == 2**5
            character = tuple(int(b) for b in rng.integers(0, 2, size=character_length(D)))
            rep = pushforward(build_irrep(D, character))
            rep.verify()
            assert rep.order == wt.irrep_order

    def test_anti_amicability_of_tensor_presentation_images(self):
        for p, q in [(2, 0), (1, 1), (0, 2), (3, 1), (2, 2), (1, 3), (4, 0)]:
            rep = minimal_images(tensor_presentation(p, q))
            got = pair_lambdas(rep.generator_images)
            assert np.array_equal(got, np.eye(len(got), dtype=np.int64) - 1)

    def test_an_image_with_the_wrong_square_is_refused_by_name(self):
        # verify has no square check: X X^T == I makes X X == -kappa I
        # break the transpose law X^T == kappa X
        rng = np.random.default_rng(109)
        refused = 0
        for _ in range(40):
            P = random_presentation(rng, int(rng.integers(1, 6)))
            R = minimal_images(P)
            if R.order % 2:
                continue
            j = int(rng.integers(P.m))
            half = MonomialMatrix.identity(R.order // 2)
            wrong = tensor(half, j2()) if P.kappa[j] == 1 else MonomialMatrix.identity(R.order)
            assert np.array_equal(dense(wrong) @ dense(wrong), -P.kappa[j] * np.eye(R.order))
            imgs = list(R.generator_images)
            imgs[j] = wrong
            with pytest.raises(VerificationError, match=rf"image {j} "):
                replace(R, generator_images=tuple(imgs)).verify()
            refused += 1
        assert refused > 10


class TestInflate:
    def test_tensor_with_identity(self):
        rep = minimal_images(quaternion_presentation())
        fat = tensor_with_identity(rep, 3)
        assert fat.order == 12
        fat.verify()

    def test_copies_validated(self):
        rep = minimal_images(quaternion_presentation())
        with pytest.raises(ValueError):
            tensor_with_identity(rep, 0)


# helpers.random_presentation(np.random.default_rng(2), 5): its new
# generators are not original generators, so its normal-form presentation
# differs from it.
RANDOM5 = AlgebraPresentation(
    (1, -1, -1, -1, -1),
    [(0, 1), (1, 2), (1, 3), (1, 4), (2, 3), (3, 4)],
)


def presentation_file(tmp_path, P):
    path = tmp_path / "presentation.json"
    path.write_text(json.dumps(presentation_to_dict(P)), encoding="utf-8")
    return str(path)


class TestOneVerification:
    @pytest.fixture
    def verified(self, monkeypatch):
        """Presentations checked by ``Representation.verify``, in call order."""
        calls = []
        check = Representation.verify

        def counting(rep):
            calls.append(rep.presentation)
            check(rep)

        monkeypatch.setattr(Representation, "verify", counting)
        return calls

    def test_minimal_images(self, verified):
        assert decompose(RANDOM5).normal_presentation() != RANDOM5
        minimal_images(RANDOM5)
        assert verified == [RANDOM5]

    def test_standalone_build_irrep(self, verified):
        D = decompose(RANDOM5)
        build_irrep(D, (0,) * character_length(D))
        assert verified == [D.normal_presentation()]

    def test_solve(self, verified):
        result = solve(LambdaPattern.constant(8, -1))
        assert verified == [result.presentation]

    def test_represent_command(self, verified, tmp_path, capsys):
        path = presentation_file(tmp_path, RANDOM5)
        assert main(["represent", path, "--format", "json"]) == 0
        assert verified == [RANDOM5]


class TestOneDecomposition:
    def test_represent_command(self, tmp_path, capsys, monkeypatch):
        calls = []

        def counting(P):
            calls.append(P)
            return decompose(P)

        monkeypatch.setattr("qcliff.decompose.decompose", counting)
        monkeypatch.setattr("qcliff.cli.decompose", counting)
        path = presentation_file(tmp_path, RANDOM5)
        assert main(["represent", path, "--format", "json"]) == 0
        assert calls == [RANDOM5]

    def test_minimal_images_takes_the_decomposition(self):
        D = decompose(RANDOM5)
        rep = minimal_images(RANDOM5, decomposition=D)
        assert rep.decomposition is D
        assert rep.generator_images == minimal_images(RANDOM5).generator_images
        with pytest.raises(ValueError, match="not of the presentation"):
            minimal_images(quaternion_presentation(), decomposition=D)


def flip_first_sign(img):
    signs = img.signs.copy()
    signs[0] = -signs[0]
    return MonomialMatrix(img.perm, signs)


# (block constant, PAIR_BLOCKS key, a presentation whose irreducible uses it)
BLOCK_USERS = [
    ("PAIR_BLOCKS", (1, 1), clifford_presentation(2, 0)),
    ("PAIR_BLOCKS", (-1, 1), clifford_presentation(3, 1)),
    ("PAIR_BLOCKS", (1, -1), clifford_presentation(1, 1)),
    ("PAIR_BLOCKS", (-1, -1), quaternion_presentation()),
    ("HH", None, AlgebraPresentation((-1,) * 4, [(0, 1), (2, 3)])),
    ("CH", None, AlgebraPresentation((-1,) * 3, [(0, 1)])),
    ("C_MINUS", None, clifford_presentation(0, 1)),
]


class TestBrokenBlockIsCaught:
    """A block constant with one sign flipped must not reach any output."""

    @staticmethod
    def break_block(monkeypatch, name, key):
        if name == "PAIR_BLOCKS":
            first, *rest = represent.PAIR_BLOCKS[key]
            monkeypatch.setitem(represent.PAIR_BLOCKS, key, (flip_first_sign(first), *rest))
        elif name == "C_MINUS":
            monkeypatch.setattr(represent, name, flip_first_sign(represent.C_MINUS))
        else:
            first, *rest = getattr(represent, name)
            monkeypatch.setattr(represent, name, (flip_first_sign(first), *rest))

    @pytest.mark.parametrize("name, key, P", BLOCK_USERS)
    def test_minimal_images_raises(self, monkeypatch, name, key, P):
        minimal_images(P)
        self.break_block(monkeypatch, name, key)
        with pytest.raises(VerificationError):
            minimal_images(P)

    @pytest.mark.parametrize("name, key, P", BLOCK_USERS)
    def test_represent_exits_3(self, monkeypatch, tmp_path, capsys, name, key, P):
        path = presentation_file(tmp_path, P)
        assert main(["represent", path]) == 0
        self.break_block(monkeypatch, name, key)
        assert main(["represent", path]) == 3
        assert "verification failure" in capsys.readouterr().err
