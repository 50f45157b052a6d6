"""Game-semantics play laboratory.

Arenas from type signatures, legality checking and generation of sequential
and concurrent plays, corpus serialization and perturbation, an LSTM
language model over move tokens, and the perturbation / cross-language
perplexity experiments built on top.  Import each name from its module.
"""

from . import arena, corpus, experiment, fileio, play, rng, seqmodel

# read off the package by perfbench/plays.py, train.py and layers.py
from .arena import arena_order, arena_width, make_arena, parse_type, render_type, uniform_tree
from .corpus import build_vocab, levenshtein, read_corpus

__version__ = "0.1.0"
