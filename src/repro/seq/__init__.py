"""Sequence substrate: alphabet, encoding, scoring, FASTA IO.

Public surface::

    from repro.seq import encode, decode, reverse_complement
    from repro.seq import Scoring, DNA_DEFAULT
    from repro.seq import read_fasta, write_fasta, FastaRecord
"""

from .._lazy import lazy_package

# Each name loads its module on first access: a DNA run does not pay for
# the protein alphabet and its matrices.
lazy_package(__name__, {
    ".alphabet": ("ALPHABET_SIZE", "BASES", "A", "C", "G", "T", "N"),
    ".encoding": ("decode", "encode", "reverse_complement"),
    ".fasta": ("FastaRecord", "iter_fasta", "read_fasta", "read_single",
               "write_fasta"),
    ".protein": ("AMINO_ACIDS", "BLOSUM62", "BLOSUM62_SCORING",
                 "PROTEIN_ALPHABET_SIZE", "CustomScoring", "decode_protein",
                 "encode_protein"),
    ".scoring": ("DNA_DEFAULT", "LINEAR_GAPS", "Scoring"),
})

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
