"""Corpus bytes and ``check`` verdicts pinned at fixed seeds.

Each corpus is built over a uniform arena (o1w5, o2w1, o2w5, o3w5) in both
languages: ``generate_corpus(arena, lang, 50, 50, 11)``, its
``perturb_corpus(c, 0.1, 12)``, on seq corpora the same with
``require_illegal=True``, and one ``complete_only`` corpus.  ``DIGESTS`` is
the sha256 of each ``corpus_text``; ``VERDICTS`` counts what
``reconstruction_verdict`` says of each play, and ``BUDGET_VERDICTS`` the
same with the search budget cut to 20 extensions, so the count of explored
extensions is pinned too.  The values were recorded before the corpus loops
re-keyed one generator and before the pointer search stopped at its last
choice point; both changes must leave every one of them as it is.
"""

import hashlib
from collections import Counter
from functools import cache

import pytest

import playlab.play
from playlab.arena import make_arena, uniform_tree
from playlab.corpus import EOP, corpus_text, generate_corpus, perturb_corpus
from playlab.play import reconstruction_verdict

GAVE_UP = "ambiguous (search budget exceeded)"
DIGESTS = {
    ("o1w5.seq", "legal"): "b4ea1bbd4722d3a845eb73549873cceed6c3d0bd039dcf821f7800bf5e655a93",
    ("o1w5.seq", "perturbed"): "4825728786ab23389c4e027ed09930ce77a78971bb3a6a000d2a7bec10d6cc6e",
    ("o1w5.seq", "illegal"): "38fec7e7f53eab25fec83336d466d1a9b13b0280014aa59558d71aa8351c94f3",
    ("o1w5.conc", "legal"): "58444c8c049ce0c126ea4c95fbd7972aa322af6d2ea086517aa3c3907f3a0ae2",
    ("o1w5.conc", "perturbed"): "3a014ccae3fb9d27bad92b33a2234a382b7a3168e4602a73ce85b8e038b23425",
    ("o2w1.seq", "legal"): "0d1ac62afc9678572a9e404604e62084d2b4dbc287cd49efe2c4ef44d81de699",
    ("o2w1.seq", "perturbed"): "591878be31a63c8a0856709af8d9c20e61fcb59cfee2b16b05eff1c5089f0b6f",
    ("o2w1.seq", "illegal"): "ac57a6b59d0fc67f17aec8f02ecc16a600088d16a7218a0cfce21f5d2eb72da8",
    ("o2w1.conc", "legal"): "47642fed8dba575ca0943061222762e873cf9a36d76ae823c70282940dbb846b",
    ("o2w1.conc", "perturbed"): "718f2879f4ec153c8fbb04996bec9a32f378efa735f7e492af28c6295f1a87d6",
    ("o2w5.seq", "legal"): "e5aa5e90f41422b8c3596e80967665272b72caab18012e943271cb0efd4382d3",
    ("o2w5.seq", "perturbed"): "44c7e1be29006f47478db071c312351890e29f1d002d59985190356a957805a8",
    ("o2w5.seq", "illegal"): "3cf4e599f123f5f14c1c1c02e0843cf019bae93dd4ab639f6fc802cfbd794e47",
    ("o2w5.conc", "legal"): "68d2c0f54c87179826c2f4f793f1d827d4f0525a07e7008f80f086ce6b0bf565",
    ("o2w5.conc", "perturbed"): "72a722a303ea0add650e9b942d107fb22d035346a7d42f84c1cad790b04ef4c9",
    ("o3w5.seq", "legal"): "602119d82fa9531cbab61ebb6687e3ea5a33553c7a7718fa994ba3be6c1dab69",
    ("o3w5.seq", "perturbed"): "622043c574ef15eae159325f3810bb00801dd02c5c8289fe6afc3fa46aded7b8",
    ("o3w5.seq", "illegal"): "6195af94711ca1fd9f2d318d9f5d056c87d1a6a7f115d61952cb03f7ce8a6119",
    ("o3w5.conc", "legal"): "c66e6c1222053863fd386ad8ebde564832a7914cfb13ba9e4c2e0513069f0b65",
    ("o3w5.conc", "perturbed"): "c811f551b857fa1edc998ab4c6d9d5473e79de7da836f51fc07469b1962b6669",
    ("o2w5.seq", "complete"): "5eb4f726f79833bb2f863cb13867850e937d53f08615c9488828f714bf5c8866",
}
VERDICTS = {
    ("o1w5.seq", "legal"): {"legal": 50},
    ("o1w5.seq", "perturbed"): {"illegal": 41, "legal": 9},
    ("o1w5.seq", "illegal"): {"illegal": 50},
    ("o1w5.conc", "legal"): {"ambiguous": 37, "legal": 13},
    ("o1w5.conc", "perturbed"): {"ambiguous": 3, "illegal": 41, "legal": 6},
    ("o2w1.seq", "legal"): {"legal": 50},
    ("o2w1.seq", "perturbed"): {"illegal": 36, "legal": 14},
    ("o2w1.seq", "illegal"): {"illegal": 50},
    ("o2w1.conc", "legal"): {"ambiguous": 18, "legal": 32},
    ("o2w1.conc", "perturbed"): {"illegal": 38, "legal": 12},
    ("o2w5.seq", "legal"): {"legal": 50},
    ("o2w5.seq", "perturbed"): {"illegal": 46, "legal": 4},
    ("o2w5.seq", "illegal"): {"illegal": 50},
    ("o2w5.conc", "legal"): {"ambiguous": 36, "legal": 14},
    ("o2w5.conc", "perturbed"): {"ambiguous": 2, "illegal": 44, "legal": 4},
    ("o3w5.seq", "legal"): {"ambiguous": 9, "legal": 41},
    ("o3w5.seq", "perturbed"): {"illegal": 46, "legal": 4},
    ("o3w5.seq", "illegal"): {"illegal": 50},
    ("o3w5.conc", "legal"): {"ambiguous": 36, "legal": 14},
    ("o3w5.conc", "perturbed"): {"illegal": 46, "legal": 4},
    ("o2w5.seq", "complete"): {"legal": 50},
}
BUDGET_VERDICTS = {
    ("o1w5.seq", "legal"): {GAVE_UP: 3, "legal": 47},
    ("o1w5.seq", "perturbed"): {"illegal": 41, "legal": 9},
    ("o1w5.seq", "illegal"): {"illegal": 50},
    ("o1w5.conc", "legal"): {GAVE_UP: 37, "legal": 13},
    ("o1w5.conc", "perturbed"): {GAVE_UP: 17, "illegal": 27, "legal": 6},
    ("o2w1.seq", "legal"): {GAVE_UP: 6, "legal": 44},
    ("o2w1.seq", "perturbed"): {GAVE_UP: 1, "illegal": 35, "legal": 14},
    ("o2w1.seq", "illegal"): {GAVE_UP: 1, "illegal": 49},
    ("o2w1.conc", "legal"): {"ambiguous": 2, GAVE_UP: 16, "legal": 32},
    ("o2w1.conc", "perturbed"): {GAVE_UP: 9, "illegal": 29, "legal": 12},
    ("o2w5.seq", "legal"): {GAVE_UP: 35, "legal": 15},
    ("o2w5.seq", "perturbed"): {GAVE_UP: 1, "illegal": 45, "legal": 4},
    ("o2w5.seq", "illegal"): {GAVE_UP: 1, "illegal": 49},
    ("o2w5.conc", "legal"): {GAVE_UP: 36, "legal": 14},
    ("o2w5.conc", "perturbed"): {GAVE_UP: 13, "illegal": 33, "legal": 4},
    ("o3w5.seq", "legal"): {GAVE_UP: 35, "legal": 15},
    ("o3w5.seq", "perturbed"): {GAVE_UP: 2, "illegal": 44, "legal": 4},
    ("o3w5.seq", "illegal"): {GAVE_UP: 2, "illegal": 48},
    ("o3w5.conc", "legal"): {GAVE_UP: 36, "legal": 14},
    ("o3w5.conc", "perturbed"): {GAVE_UP: 6, "illegal": 40, "legal": 4},
    ("o2w5.seq", "complete"): {"legal": 50},
}


@cache
def _corpus(cell: str, kind: str):
    label, lang = cell.split(".")
    arena = make_arena(uniform_tree(int(label[1]), int(label[3])))
    legal = generate_corpus(arena, lang, 50, 50, 11, complete_only=kind == "complete")
    if kind in ("legal", "complete"):
        return arena, legal
    return arena, perturb_corpus(legal, 0.1, 12, require_illegal=kind == "illegal")


def _verdicts(arena, corpus) -> dict:
    return dict(Counter(reconstruction_verdict(arena, corpus.language, seq[:-1])
                        for seq in corpus.plays))


@pytest.mark.parametrize("cell, kind", list(DIGESTS))
def test_corpus_bytes(cell, kind):
    _, corpus = _corpus(cell, kind)
    assert all(seq[-1] == EOP for seq in corpus.plays)
    assert hashlib.sha256(corpus_text(corpus).encode("utf-8")).hexdigest() == DIGESTS[cell, kind]


@pytest.mark.parametrize("cell, kind", list(DIGESTS))
def test_verdict_counts(cell, kind):
    assert _verdicts(*_corpus(cell, kind)) == VERDICTS[cell, kind]


@pytest.mark.parametrize("cell, kind", list(DIGESTS))
def test_verdict_counts_under_a_small_budget(cell, kind, monkeypatch):
    arena, corpus = _corpus(cell, kind)  # built at the full budget
    monkeypatch.setattr(playlab.play, "SEARCH_BUDGET", 20)
    assert _verdicts(arena, corpus) == BUDGET_VERDICTS[cell, kind]
