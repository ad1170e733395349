"""JSON documents: round trips, strict integer decoding, verification dispatch."""

import hashlib
import itertools
import json
import random

import pytest
from hypothesis import given, settings, strategies as st

from packpoly import (
    CantorMatch,
    ModularGap,
    LinearSubject,
    QuadPoly2,
    StructuralFail,
    ValidationCheck,
    classify,
    document_from_json,
    document_to_json,
    make_document,
    refute_linear,
    verify_document,
)

REFERENCE = [
    QuadPoly2(1, 1, 1, 1, 3, 0),
    QuadPoly2(1, 1, 1, 3, 1, 0),
    QuadPoly2(1, 0, 1, 1, 1, 0),
    QuadPoly2(1, 1, 1, 1, 3, 2),
    QuadPoly2(1, 1, 1, 1, 1, 0),
    QuadPoly2(1, -2, 1, 1, 1, 0),
    QuadPoly2(1, 3, 9, -9, -9, 0),
    QuadPoly2(1, 1, 1, 2, 3, 0),
]


class TestRoundTrip:
    @pytest.mark.parametrize("F", REFERENCE, ids=str)
    def test_every_certificate_kind_survives(self, F):
        cert = classify(F)
        text = document_to_json(F, cert)
        subject2, cert2 = document_from_json(text)
        assert subject2 == F
        assert cert2 == cert
        assert verify_document(subject2, cert2)

    def test_linear_subject_survives(self):
        subject = LinearSubject((3, -4, 7), 2, 5)
        cert = refute_linear([3, -4, 7], 2, ell=5)
        subject2, cert2 = document_from_json(document_to_json(subject, cert))
        assert subject2 == subject
        assert cert2 == cert
        assert verify_document(subject2, cert2)

    def test_output_is_deterministic_and_sorted(self):
        F = QuadPoly2(1, 0, 1, 1, 1, 0)
        cert = classify(F)
        first = document_to_json(F, cert)
        second = document_to_json(F, cert)
        assert first == second
        node = json.loads(first)
        assert list(node) == sorted(node)
        assert list(node["subject"]["coefficients"]) == list("abcdef")

    def test_huge_coefficients_stay_exact(self):
        F = QuadPoly2(2, 0, 2, 0, 0, 10**40)
        cert = classify(F)
        text = document_to_json(F, cert)
        assert f'"f": "{10**40}"' in text
        subject2, cert2 = document_from_json(text)
        assert subject2.f == 10**40
        assert verify_document(subject2, cert2)

    def test_pipeline_past_the_int_str_limit(self):
        # 4,401 digits: past the interpreter's default conversion limit
        F = QuadPoly2(1, 0, 1, 1, 1, 10**4400 + 1)
        cert = classify(F)
        assert isinstance(cert, ModularGap)
        text = document_to_json(F, cert)
        assert '"f": "1' + "0" * 4399 + '1"' in text
        subject2, cert2 = document_from_json(text)
        assert (subject2, cert2) == (F, cert)
        assert verify_document(subject2, cert2)

    def test_failure_identity_past_the_int_str_limit(self):
        F = QuadPoly2(1, 0, 1, 1, 1, -(10**4400))
        cert = classify(F)
        assert isinstance(cert, StructuralFail)
        assert cert.failures[0].name == "f_nonnegative"
        assert "-1" + "0" * 4400 + " " in cert.failures[0].identity
        subject2, cert2 = document_from_json(document_to_json(F, cert))
        assert (subject2, cert2) == (F, cert)
        assert verify_document(subject2, cert2)

    @settings(max_examples=8, deadline=None)
    @given(
        # D = b^2 - ac not a square: ModularGap, or StructuralFail for an
        # indefinite part or a negative f; a square D with linear terms this
        # large exhausts the witness search (ROADMAP item 3)
        abc=st.sampled_from([(1, 0, 1), (2, 1, 3), (3, -1, 2), (1, 0, 2), (1, -2, 1)]),
        seed=st.integers(0, 2**32),
    )
    def test_coefficients_of_thousands_of_digits(self, abc, seed):
        a, b, c = abc
        rng = random.Random(seed)
        # 4,001 to 10,500 digits each
        d, e, f = (
            rng.choice([1, -1]) * rng.randrange(10**4000, 10 ** rng.randint(4001, 10500))
            for _ in range(3)
        )
        F = QuadPoly2(a, b, c, d + (a - d) % 2, e + (c - e) % 2, f)
        cert = classify(F)
        subject2, cert2 = document_from_json(document_to_json(F, cert))
        assert (subject2, cert2) == (F, cert)
        assert verify_document(subject2, cert2)

    def test_null_witness_fields_survive(self):
        F = QuadPoly2(1, 1, 1, 1, 3, 0)
        cert = StructuralFail(
            failures=(
                ValidationCheck(
                    name="f_nonnegative",
                    identity="synthetic",
                    witness=None,
                    doubled_value=None,
                ),
            )
        )
        _, cert2 = document_from_json(document_to_json(F, cert))
        assert cert2 == cert
        assert not verify_document(F, cert2)  # f = 0 is fine, claim is false


class TestStrictDecoding:
    def good_text(self):
        F = QuadPoly2(1, 1, 1, 1, 3, 2)
        return document_to_json(F, classify(F))

    def test_raw_json_numbers_rejected(self):
        text = self.good_text().replace('"f": "2"', '"f": 2')
        with pytest.raises(ValueError):
            document_from_json(text)

    @pytest.mark.parametrize("bad", ["1.5", "+5", " 3", "0x10", "", "--4", "3_0"])
    def test_malformed_integer_tokens_rejected(self, bad):
        text = self.good_text().replace('"f": "2"', f'"f": "{bad}"')
        with pytest.raises(ValueError):
            document_from_json(text)

    def test_wrong_format_tag_rejected(self):
        text = self.good_text().replace('"packing-certificate"', '"something-else"')
        with pytest.raises(ValueError):
            document_from_json(text)

    def test_wrong_version_rejected(self):
        text = self.good_text().replace('"version": 1', '"version": 2')
        with pytest.raises(ValueError):
            document_from_json(text)

    @pytest.mark.parametrize("version", ["true", "1.0", '"1"', "null"])
    def test_version_must_be_the_integer_one(self, version):
        good = self.good_text()
        assert '"version": 1' in good
        text = good.replace('"version": 1', f'"version": {version}')
        with pytest.raises(ValueError, match="^unsupported document version "):
            document_from_json(text)

    def test_unknown_certificate_kind_rejected(self):
        text = self.good_text().replace('"kind": "gap"', '"kind": "mystery"')
        with pytest.raises(ValueError):
            document_from_json(text)

    def test_missing_coefficient_rejected(self):
        node = json.loads(self.good_text())
        del node["subject"]["coefficients"]["e"]
        with pytest.raises(ValueError):
            document_from_json(json.dumps(node))

    def test_extra_coefficient_rejected(self):
        node = json.loads(self.good_text())
        node["subject"]["coefficients"]["g"] = "1"
        with pytest.raises(ValueError):
            document_from_json(json.dumps(node))

    def test_non_object_document_rejected(self):
        with pytest.raises(ValueError):
            document_from_json("[1, 2, 3]")


class TestVerificationDispatch:
    def test_subject_certificate_mismatch_is_false(self):
        linear = LinearSubject((1, 2), 0, 0)
        assert not verify_document(linear, CantorMatch(1))
        quad = QuadPoly2(1, 1, 1, 1, 3, 0)
        lin_cert = refute_linear([1, 2], 0)
        assert not verify_document(quad, lin_cert)

    def test_tampering_detected_after_round_trip(self):
        F = QuadPoly2(1, 0, 1, 1, 1, 0)
        node = make_document(F, classify(F))
        node["certificate"]["s"] = "9"
        subject2, cert2 = document_from_json(json.dumps(node))
        assert not verify_document(subject2, cert2)


class TestPinnedDocuments:
    # SHA-256 of the concatenated documents.  The box yields every failure
    # name classify can emit except nonnegative_range, so this pins the
    # identity texts, which no other test reads.
    SMALL_BOX = "f5efc78e6ab77e7b8a76373f86cdd065a0e148c0c05a5ef017c10244c41d1b7f"

    def test_small_box_documents_are_byte_identical(self):
        digest = hashlib.sha256()
        for coeffs in itertools.product(range(-2, 3), repeat=6):
            if coeffs[:3] == (0, 0, 0):
                continue
            F = QuadPoly2(*coeffs)
            digest.update(document_to_json(F, classify(F)).encode())
        assert digest.hexdigest() == self.SMALL_BOX

    # Candidates whose D = b^2 - ac reaches the prime table: no factor
    # below 10^6 (the Jacobi-scan witness), or factors between 10^3 and
    # 10^6, first and higher powers.  Digests of each document, taken
    # before the table was screened in blocks.
    BIG_D = {
        (1000003, 0, 1000033, 1, 1, 0): "e9cc91eb5c9837a004ee5fb2716c2a60a971bbeb63ea577a1f30c8d3ed2a8433",
        (10**149 + 183, 0, 2 * 10**149 + 801, 1, 1, 0): "bf498bf6c9615b458717749a8b50845e2a06eb7924ac9fa5b1a13ce35e3be005",
        (1, 0, 1009 * 1013, 1, 1, 0): "a1ce4b41dc0d0ed6d15cbc1d36f991bced5a329ffcc3ce3ef60d5c18fc6ce5ea",
        (1, 0, 7 * 999983**2, 1, 1, 0): "eb87ac3fb295a429e03411b9a0ba03c1f47128af4ed6db8e85d342b6b8a293b4",
        (2, 0, 2 * 104729 * 1299709, 0, 0, 0): "883a88ddc7b76907870592996eb5ac4bd29914171a18ec357780fdb56e7cb320",
        (1, 1, 1 + 2 * 1013 * 999983, 1, 1, 0): "fd51c31167ea1ea8f83b5989840a13e8a207bee5041bd8170d4f390154fec51c",
        (1, 0, 3 * 1009**3, 1, 1, 0): "81b99acfe85b26611747f5752d46db05d9c2883089a54c52f1b68babac94cd46",
    }

    @pytest.mark.parametrize("coeffs", list(BIG_D), ids=range(len(BIG_D)))
    def test_big_d_documents_are_byte_identical(self, coeffs):
        F = QuadPoly2(*coeffs)
        digest = hashlib.sha256(document_to_json(F, classify(F)).encode())
        assert digest.hexdigest() == self.BIG_D[coeffs]
