"""Unit tests: repro.seq.alphabet and repro.seq.encoding."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import SequenceError
from repro.seq import alphabet, encoding


class TestAlphabet:
    def test_base_codes_are_stable(self):
        assert alphabet.BASES == "ACGTN"
        assert (alphabet.A, alphabet.C, alphabet.G, alphabet.T, alphabet.N) == (0, 1, 2, 3, 4)

    def test_complement_is_involution_on_acgt(self):
        codes = np.arange(4, dtype=np.uint8)
        twice = alphabet.COMPLEMENT[alphabet.COMPLEMENT[codes]]
        assert np.array_equal(twice, codes)

    def test_complement_of_n_is_n(self):
        assert alphabet.COMPLEMENT[alphabet.N] == alphabet.N

    def test_is_valid_code_array_accepts_good(self):
        assert alphabet.is_valid_code_array(np.array([0, 3, 4], dtype=np.uint8))
        assert alphabet.is_valid_code_array(np.array([], dtype=np.uint8))

    @pytest.mark.parametrize(
        "arr",
        [
            np.array([0, 5], dtype=np.uint8),          # out of range
            np.array([0, 1], dtype=np.int32),           # wrong dtype
            np.array([[0], [1]], dtype=np.uint8),       # wrong ndim
            [0, 1],                                     # not an ndarray
        ],
    )
    def test_is_valid_code_array_rejects_bad(self, arr):
        assert not alphabet.is_valid_code_array(arr)


class TestEncode:
    def test_encode_basic(self):
        assert encoding.encode("ACGTN").tolist() == [0, 1, 2, 3, 4]

    def test_encode_lowercase(self):
        assert encoding.encode("acgt").tolist() == [0, 1, 2, 3]

    def test_encode_bytes_input(self):
        assert encoding.encode(b"AC").tolist() == [0, 1]

    def test_encode_passthrough_code_array(self):
        codes = np.array([0, 1, 2], dtype=np.uint8)
        assert encoding.encode(codes) is codes

    def test_encode_rejects_bad_code_array(self):
        with pytest.raises(SequenceError):
            encoding.encode(np.array([9], dtype=np.uint8))

    def test_lenient_maps_unknown_to_n(self):
        assert encoding.encode("AXZ!").tolist() == [0, 4, 4, 4]

    def test_iupac_ambiguity_becomes_n(self):
        assert encoding.encode("RYSWKM").tolist() == [4] * 6

    def test_strict_rejects_unknown(self):
        with pytest.raises(SequenceError, match="invalid base"):
            encoding.encode("AC!", strict=True)

    def test_strict_accepts_iupac_as_n(self):
        assert encoding.encode("RN", strict=True).tolist() == [4, 4]

    def test_encode_empty(self):
        assert encoding.encode("").size == 0

    def test_encode_rejects_other_types(self):
        with pytest.raises(SequenceError):
            encoding.encode(1234)  # type: ignore[arg-type]


class TestDecode:
    def test_roundtrip(self):
        text = "ACGTNACGT"
        assert encoding.decode(encoding.encode(text)) == text

    def test_decode_rejects_bad_array(self):
        with pytest.raises(SequenceError):
            encoding.decode(np.array([7], dtype=np.uint8))


class TestReverseComplement:
    def test_known_value(self):
        rc = encoding.reverse_complement(encoding.encode("AACGTT"))
        assert encoding.decode(rc) == "AACGTT"  # palindrome
        rc2 = encoding.reverse_complement(encoding.encode("AAAC"))
        assert encoding.decode(rc2) == "GTTT"

    def test_involution(self):
        codes = encoding.encode("ACGTNNAGCT")
        assert np.array_equal(
            encoding.reverse_complement(encoding.reverse_complement(codes)), codes
        )

    def test_rejects_bad(self):
        with pytest.raises(SequenceError):
            encoding.reverse_complement(np.array([9], dtype=np.uint8))
