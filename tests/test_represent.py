import itertools
import json
from dataclasses import replace

import numpy as np
import pytest

from qcliff import (
    AlgebraPresentation,
    MonomialMatrix,
    VerificationError,
    minimal_images,
    represent,
)
from qcliff.cli import main
from qcliff.decompose import decompose
from qcliff.gf2 import Gf2Matrix
from qcliff.hadamard import TransversalSpec, complete, lambda_of_transversal, transversal
from qcliff.matrices import j2, pair_lambdas, stacked_kron, x2, z2
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
from qcliff.serialize import lambda_to_dict, presentation_to_dict
from qcliff.solve import solve, verify_solution
from qcliff.structure import classify, tensor_presentation

from helpers import (
    all_characters,
    all_presentations,
    block_of,
    clifford_presentation,
    constant_pattern,
    dense,
    dense_verify,
    fixed_type_presentation,
    pattern_from_pairs,
    pushforward_by_products,
    quaternion_presentation,
    random_presentation,
    tensor,
    tensor_with_identity,
    with_block,
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


def flip_first_sign(img):
    signs = img.signs.copy()
    signs[0] = -signs[0]
    return MonomialMatrix(img.perm, signs)


def block_families(rep):
    """Per block, the family of its ``m`` factor rows as monomial matrices."""
    return [[MonomialMatrix._closed(p, s) for p, s in zip(perm, signs)]
            for perm, signs in rep.blocks()]


def swept_decompositions(rng):
    """``(P, decompose(P), characters)``: every presentation up to m = 3
    with every character, then 12 seeded ones at each m = 4..8 with up to
    4 characters each.  Only the seeded ones reach the fused HH block,
    which needs two quaternionic pairs."""
    exhaustive = (P for m in range(1, 4) for P in all_presentations(m))
    seeded = (random_presentation(rng, m) for m in range(4, 9) for _ in range(12))
    for P in itertools.chain(exhaustive, seeded):
        D = decompose(P)
        characters = list(all_characters(D))
        if P.m > 3 and len(characters) > 4:
            characters = [characters[i] for i in rng.choice(len(characters), 4, replace=False)]
        yield P, D, characters


def fused_blocks(D):
    """Whether the irreps of ``D`` use the fused CH block, a reused complex
    central and the fused HH block."""
    r, squares = D.r, D.squares
    neg = sum(q == -1 for q in squares[:r])
    quat = sum(a == b == -1 for a, b in zip(squares[r::2], squares[r + 1::2]))
    return np.array([neg > 0 and quat % 2 == 1, neg > 1, quat >= 2])


class TestFactoredPath:
    def test_pushforward_matches_products_of_the_expanded_images(self):
        used = np.zeros(3, dtype=np.int64)
        for P, D, characters in swept_decompositions(np.random.default_rng(1013)):
            used += fused_blocks(D)
            for ch in characters:
                R = build_irrep(D, ch)
                pushed = pushforward(R)
                assert pushed.generator_images == pushforward_by_products(R)
                assert pushed == minimal_images(P, ch, D)
        assert used.all()

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

    def test_pushforward_refuses_a_representation_of_non_minimal_order(self):
        # the irreducibility argument of pushforward needs the minimal order
        D = decompose(RANDOM5)
        R = build_irrep(D, zero_character(D))
        with pytest.raises(ValueError, match=rf"expects an irreducible, not order {2 * R.order}"):
            pushforward(tensor_with_identity(R, 2))
        assert pushforward(replace(R, character=R.character)) == pushforward(R)


def verify_outcome(check):
    """The message of the ``VerificationError`` that ``check()`` raises, or None."""
    try:
        check()
    except VerificationError as exc:
        return str(exc)
    return None


def agreed_outcome(R):
    """What ``R.verify`` and the dense oracle both report for ``R``."""
    got = verify_outcome(R.verify)
    assert got == verify_outcome(lambda: dense_verify(R.presentation, R.order,
                                                      R.generator_images))
    return got


def mutated_blocks(rng, R):
    """``R`` with one block sign flipped, one block transposed, and one block
    perm swapped between two images (each at a random image and block)."""
    i, t = int(rng.integers(R.presentation.m)), int(rng.integers(len(R.sizes)))
    block = block_of(R, i, t)
    yield "sign", with_block(R, i, t, flip_first_sign(block))
    yield "transpose", with_block(R, i, t, block.transpose())
    k = int(rng.integers(R.presentation.m))
    other = block_of(R, k, t)
    swapped = with_block(R, i, t, MonomialMatrix(other.perm, block.signs))
    yield "swap", with_block(swapped, k, t, MonomialMatrix(block.perm, other.signs))


class TestCertificate:
    """``Representation.verify`` reads only the factors, ``helpers.dense_verify``
    the expanded images; they must give the same verdict and message."""

    def test_agrees_with_the_dense_oracle_on_irreps_and_mutated_blocks(self):
        rng = np.random.default_rng(1019)
        used = np.zeros(3, dtype=np.int64)
        refused = dict.fromkeys(("sign", "transpose", "swap"), 0)
        for P, D, characters in swept_decompositions(rng):
            used += fused_blocks(D)
            for ch in characters:
                for R in (build_irrep(D, ch), minimal_images(P, ch, D)):
                    assert agreed_outcome(R) is None
                    for name, bad in mutated_blocks(rng, R):
                        refused[name] += agreed_outcome(bad) is not None
        assert used.all()
        # every block of an irreducible is symmetric or skew, so its
        # transpose changes at most the sign of the image, which no
        # relation sees: that mutation must be accepted by both
        assert refused["sign"] and refused["swap"] and not refused["transpose"], refused

    def test_malformed_factors_are_refused(self):
        R = minimal_images(RANDOM5)
        outside = R.perm.copy()
        outside[0, :2] = outside[0, 2:4]
        for bad, message in [
            (replace(R, order=2 * R.order), "have order"),
            (replace(R, sign=R.sign[1:]), "wrong number of generator images"),
            (replace(R, perm=outside), "not signed permutations"),
            (replace(R, perm=R.perm[:, ::-1]), "not signed permutations"),
            (replace(R, signs=2 * R.signs), "not signed permutations"),
        ]:
            with pytest.raises(VerificationError, match=message):
                bad.verify()


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
        # break the transpose law X^T == kappa X.  The wrong image is made
        # from blocks, for the certificate, and at full order, for the
        # dense oracle
        rng = np.random.default_rng(109)
        skew = {2: j2(), 4: QUAT_LEFT_I}
        refused = 0
        for _ in range(40):
            P = random_presentation(rng, int(rng.integers(1, 6)))
            R = minimal_images(P)
            if R.order % 2:
                continue
            j = int(rng.integers(P.m))
            bad = R
            for t, size in enumerate(R.sizes):
                block = skew[size] if P.kappa[j] == 1 and t == 0 else MonomialMatrix.identity(size)
                bad = with_block(bad, j, t, block)
            half = MonomialMatrix.identity(R.order // 2)
            wrong = tensor(half, j2()) if P.kappa[j] == 1 else MonomialMatrix.identity(R.order)
            for x in (bad.generator_images[j], wrong):
                assert np.array_equal(dense(x) @ dense(x), -P.kappa[j] * np.eye(R.order))
            imgs = list(R.generator_images)
            imgs[j] = wrong
            with pytest.raises(VerificationError, match=rf"image {j} "):
                bad.verify()
            with pytest.raises(VerificationError, match=rf"image {j} "):
                dense_verify(P, R.order, imgs)
            refused += 1
        assert refused > 10


class TestInflate:
    def test_tensor_with_identity(self):
        rep = minimal_images(quaternion_presentation())
        fat = tensor_with_identity(rep, 3)
        assert fat.order == 12
        ident = MonomialMatrix.identity(3)
        assert fat.generator_images == tuple(tensor(x, ident) for x in rep.generator_images)
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
        result = solve(constant_pattern(8, -1))
        assert verified == [result.presentation]

    def test_represent_command(self, verified, tmp_path, capsys):
        path = presentation_file(tmp_path, RANDOM5)
        assert main(["represent", path, "--format", "json"]) == 0
        assert verified == [RANDOM5]

    @pytest.fixture
    def pair_tables(self, monkeypatch):
        """Families whose factored pair table ``Representation.pair_table`` forms."""
        calls = []

        def counting(family, sizes=None):
            calls.append(len(family))
            return pair_lambdas(family, sizes)

        monkeypatch.setattr("qcliff.represent.pair_lambdas", counting)
        return calls

    def test_solve_forms_one_pair_table(self, pair_tables):
        # Representation.verify and verify_solution read the same table
        solve(constant_pattern(8, -1))
        assert pair_tables == [9]

    def test_complete_forms_one_pair_table(self, pair_tables):
        complete(3)
        assert pair_tables == [9]


class TestPushSigns:
    def test_inversion_check_names_the_generator(self, monkeypatch):
        # a wrong inverse basis change: row i picks one factor too many or
        # too few, so only generator i's word misses its mask
        rng = np.random.default_rng(1019)
        inverse = Gf2Matrix.inverse
        for _ in range(20):
            P = random_presentation(rng, int(rng.integers(1, 9)))
            i, k = (int(v) for v in rng.integers(P.m, size=2))

            def flipped(G):
                bits = list(inverse(G).bits)
                bits[i] ^= 1 << k
                return Gf2Matrix(G.rows, G.cols, tuple(bits))

            monkeypatch.setattr(Gf2Matrix, "inverse", flipped)
            with pytest.raises(VerificationError,
                               match=f"^basis change inversion failed for generator {i}$"):
                minimal_images(P)
            monkeypatch.setattr(Gf2Matrix, "inverse", inverse)

    def test_pipeline_makes_no_set_bit_walk(self, monkeypatch):
        # every sign on the pipeline's path comes from Gram products or
        # carried bits; only the single-pair commutation_sign walks bits
        def refuse(rows, u):
            raise AssertionError("a set-bit walk on the pipeline's path")

        P = fixed_type_presentation(np.random.default_rng(24), "quaternion", 2, 11)
        monkeypatch.setattr("qcliff.gf2.xor_rows", refuse)
        D = decompose(P)
        assert classify(D).case.value == "quaternion"
        minimal_images(P, None, D)
        # seed 2 at n = 9 reaches the bit fixing (test_cap_comes_before_the_bit_fixing)
        rng = np.random.default_rng(2)
        lam = pattern_from_pairs(9, {(j, k): int(rng.choice([-1, 1]))
                                     for j in range(9) for k in range(j + 1, 9)})
        assert solve(lam).b == 16
        complete(3)


class TestOneDecomposition:
    @pytest.fixture
    def decomposed(self, monkeypatch):
        """Presentations passed to ``decompose``, in call order."""
        calls = []

        def counting(P):
            calls.append(P)
            return decompose(P)

        for where in ("qcliff.decompose", "qcliff.cli", "qcliff.solve"):
            monkeypatch.setattr(f"{where}.decompose", counting)
        return calls

    def test_represent_command(self, decomposed, tmp_path, capsys):
        path = presentation_file(tmp_path, RANDOM5)
        assert main(["represent", path, "--format", "json"]) == 0
        assert decomposed == [RANDOM5]

    def test_solve_realizes_the_plus_presentation_of_its_sweep(self, decomposed):
        # kappa = +1 wins through the fast exit of the sweep, which has
        # decomposed that presentation already; the other call is the even
        # subalgebra's
        result = solve(constant_pattern(13, 1))
        assert result.kappa == (1,) * 13
        assert len(decomposed) == 2 and decomposed[0] is result.presentation

    def test_minimal_images_takes_the_decomposition(self):
        D = decompose(RANDOM5)
        rep = minimal_images(RANDOM5, decomposition=D)
        assert rep.decomposition is D
        assert rep.generator_images == minimal_images(RANDOM5).generator_images
        with pytest.raises(ValueError, match="not of the presentation"):
            minimal_images(quaternion_presentation(), decomposition=D)




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


class TestExpansion:
    """The order-b images are formed only when a caller reads them."""

    @pytest.fixture
    def expanded(self, monkeypatch):
        """Number of images per ``stacked_kron`` call of ``qcliff.represent``."""
        calls = []

        def counting(sign, blocks):
            calls.append(len(sign))
            return stacked_kron(sign, blocks)

        monkeypatch.setattr("qcliff.represent.stacked_kron", counting)
        return calls

    def test_factors_are_read_only(self):
        # generator_images is cached from them
        R = minimal_images(RANDOM5)
        assert not any(arr.flags.writeable for arr in (R.sign, R.perm, R.signs))

    def test_building_and_verifying_expand_nothing(self, expanded):
        D = decompose(RANDOM5)
        pushforward(build_irrep(D, zero_character(D))).verify()
        minimal_images(RANDOM5, None, D).verify()
        assert expanded == []

    def test_represent_json_expands_nothing(self, expanded, tmp_path, capsys):
        # the writer formats every image from its blocks
        path = presentation_file(tmp_path, RANDOM5)
        assert main(["represent", path, "--format", "json"]) == 0
        assert expanded == []

    def test_solve_json_expands_nothing(self, expanded, tmp_path, capsys):
        # the solve writer formats its images from their blocks too
        path = tmp_path / "lambda.json"
        path.write_text(json.dumps(lambda_to_dict(constant_pattern(13, -1))), encoding="utf-8")
        assert main(["solve", str(path), "--format", "json"]) == 0
        assert json.loads(capsys.readouterr().out)["b"] == 128
        assert expanded == []

    @pytest.mark.parametrize("m", [6, 7])
    def test_solve_certifies_the_default_transversal_unexpanded(self, expanded, m):
        # b = 2**31 and 2**63: 64 order-b int64 images would need 2 TiB at
        # m = 6, and no array of length 2**63 can exist
        lam = lambda_of_transversal(transversal(TransversalSpec.default(m)))
        result = solve(lam)
        assert result.b == 1 << (2 ** (m - 1) - 1)
        verify_solution(lam, result)
        assert expanded == []
