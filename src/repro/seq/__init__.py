"""Sequence substrate: alphabet, encoding, scoring, FASTA IO.

Public surface::

    from repro.seq import encode, decode, reverse_complement
    from repro.seq import Scoring, DNA_DEFAULT
    from repro.seq import read_fasta, write_fasta, FastaRecord
"""

from .alphabet import ALPHABET_SIZE, BASES, A, C, G, T, N
from .encoding import decode, encode, reverse_complement
from .fasta import FastaRecord, iter_fasta, read_fasta, read_single, write_fasta
from .protein import (
    AMINO_ACIDS,
    BLOSUM62,
    BLOSUM62_SCORING,
    PROTEIN_ALPHABET_SIZE,
    CustomScoring,
    decode_protein,
    encode_protein,
)
from .scoring import DNA_DEFAULT, LINEAR_GAPS, Scoring

__all__ = [
    "ALPHABET_SIZE",
    "BASES",
    "A",
    "C",
    "G",
    "T",
    "N",
    "encode",
    "decode",
    "reverse_complement",
    "FastaRecord",
    "iter_fasta",
    "read_fasta",
    "read_single",
    "write_fasta",
    "Scoring",
    "DNA_DEFAULT",
    "LINEAR_GAPS",
    "AMINO_ACIDS",
    "BLOSUM62",
    "BLOSUM62_SCORING",
    "PROTEIN_ALPHABET_SIZE",
    "CustomScoring",
    "decode_protein",
    "encode_protein",
]
