"""Acceptance suite: one test per shipped guarantee.

Each test prints a single [PASS]/[FAIL] line with the measured numbers.
Criteria 8-10 train desk-scale models (order-2 arena, 10k plays, hidden
128) and take a few minutes on one core; everything else is seconds.
"""

from dataclasses import replace
from functools import lru_cache

import numpy as np
import pytest

from playlab.arena import make_arena, parse_type, render_type, uniform_tree
from playlab.corpus import (
    EOP,
    Corpus,
    build_vocab,
    corpus_text,
    elide,
    generate_corpus,
    generate_play,
    levenshtein,
    perturb,
)
from playlab.experiment import CROSS_LANGUAGE, PERTURBED, ExperimentSpec, run_cell
from playlab.play import (
    ALTERNATION,
    CONCURRENT,
    FORK,
    JOIN,
    SEQUENTIAL,
    Verdict,
    check_concurrent,
    check_sequential,
    checker_for,
)
from playlab.rng import derive_seed, substream
from playlab.seqmodel import (
    LstmModel,
    ModelConfig,
    backward,
    forward,
    init_model,
    loss_bits,
    perplexity,
    train_model,
)

from conftest import PAR_COMPOSITION_PLAY, SEQ_COMPOSITION_PLAY
from oracles import (
    enumerate_justified,
    enumerate_ref_legal,
    lev_matrix,
    play_of,
    ref_check_concurrent,
    ref_check_sequential,
)

GEN_SEED = 11
GEN_COUNT = 10_000
GEN_ARENAS = [(1, 1), (1, 2), (2, 1), (2, 2)]

# the desk grid's 4-epoch budget underfits the order-2 cell; 8 epochs with
# the default halved-rate tail converges well inside the runtime budget
DESK_EPOCHS = 8
DESK_CELL = (2, 1, 10_000)


def _verdict_line(num: int, label: str, failures: list[str]) -> None:
    status = "FAIL" if failures else "PASS"
    detail = f" -- {'; '.join(failures)}" if failures else ""
    print(f"[{status}] criterion {num}: {label}{detail}", flush=True)
    assert not failures, f"criterion {num}: {'; '.join(failures)}"


@lru_cache(maxsize=None)
def _justified_pool(spec: str):
    arena = make_arena(parse_type(spec))
    return arena, enumerate_justified(arena, 6)


@lru_cache(maxsize=None)
def _generated_sample(lang: str, order: int, width: int):
    """One generator soundness run: 10k plays from per-index substreams
    (play i is exactly play i of the same-seed generated corpus).  Returns
    the corpus text, any checker rejections, and the short prefixes seen.
    """
    arena = make_arena(uniform_tree(order, width))
    seed = derive_seed(GEN_SEED, lang, order, width)
    checker = checker_for(lang)
    lines = []
    bad = []
    prefixes = set()
    for i in range(GEN_COUNT):
        play = generate_play(arena, lang, 50, substream(seed, i))
        verdict = checker(arena, play)
        if not verdict.legal and len(bad) < 3:
            bad.append(f"play {i}: {verdict}")
        flat = tuple((pm.move.token, pm.justifier) for pm in play)
        prefixes.update(flat[:k] for k in range(1, min(4, len(flat)) + 1))
        lines.append(elide(play))
    text = corpus_text(Corpus(render_type(arena.tree), lang, seed, lines))
    return arena, seed, text, tuple(bad), frozenset(prefixes)


def _desk_cell_ppls(lang: str) -> dict[str, float]:
    """Train one desk cell and evaluate train/validation/perturbed/cross."""
    spec = replace(ExperimentSpec(), epochs=DESK_EPOCHS)
    perturbed, cross = run_cell(spec, (PERTURBED, CROSS_LANGUAGE), lang, *DESK_CELL)
    return {
        "train": perturbed.train_ppl,
        "validation": perturbed.validation_ppl,
        "perturbed": perturbed.test_ppl,
        "cross": cross.test_ppl,
    }


@pytest.fixture(scope="module")
def seq_desk():
    return _desk_cell_ppls(SEQUENTIAL)


@pytest.fixture(scope="module")
def conc_desk():
    return _desk_cell_ppls(CONCURRENT)


def test_criterion_01_checker_equivalence():
    failures = []
    checked = 0
    for spec in ("unit -> unit", "unit -> unit -> unit"):
        arena, pool = _justified_pool(spec)
        for play in pool:
            checked += 1
            if check_sequential(arena, play) != ref_check_sequential(arena, play):
                failures.append(f"sequential mismatch on {spec}: {play}")
            if check_concurrent(arena, play) != ref_check_concurrent(arena, play):
                failures.append(f"concurrent mismatch on {spec}: {play}")
            if len(failures) > 3:
                break
    _verdict_line(
        1, f"checkers match reference on {checked} justified sequences", failures
    )


def test_criterion_02_worked_example_fidelity():
    two_arg = make_arena(parse_type("unit -> unit -> unit"))
    arrow = make_arena(parse_type("unit -> unit"))
    failures = []
    if check_sequential(two_arg, SEQ_COMPOSITION_PLAY) != Verdict.ok():
        failures.append("sequential composition play not sequential-legal")
    if check_concurrent(two_arg, SEQ_COMPOSITION_PLAY) != Verdict.ok():
        failures.append("sequential composition play not concurrent-legal")
    if check_concurrent(two_arg, PAR_COMPOSITION_PLAY) != Verdict.ok():
        failures.append("parallel composition play not concurrent-legal")
    got = check_sequential(two_arg, PAR_COMPOSITION_PLAY)
    if got != Verdict.fail(ALTERNATION, 2):
        failures.append(f"parallel composition play: want alternation at 2, got {got}")
    fork_play = play_of(("q@ε", None), ("a@ε", 0), ("q@1", 0))
    got = check_concurrent(arrow, fork_play)
    if got != Verdict.fail(FORK, 2):
        failures.append(f"fork example: want fork at 2, got {got}")
    join_play = play_of(("q@ε", None), ("q@1", 0), ("a@ε", 0))
    got = check_concurrent(arrow, join_play)
    if got != Verdict.fail(JOIN, 2):
        failures.append(f"join example: want join at 2, got {got}")
    _verdict_line(2, "worked example plays get the exact stated verdicts", failures)


def test_criterion_03_sequential_contained_in_concurrent():
    failures = []
    seq_legal = 0
    for spec in ("unit -> unit", "unit -> unit -> unit"):
        arena, pool = _justified_pool(spec)
        for play in pool:
            if check_sequential(arena, play).legal:
                seq_legal += 1
                if not check_concurrent(arena, play).legal:
                    failures.append(f"containment broken on {spec}: {play}")
                    break
    two_arg = make_arena(parse_type("unit -> unit -> unit"))
    witness_ok = (
        check_concurrent(two_arg, PAR_COMPOSITION_PLAY).legal
        and not check_sequential(two_arg, PAR_COMPOSITION_PLAY).legal
    )
    if not witness_ok:
        failures.append("no witness that the containment is strict")
    _verdict_line(
        3,
        f"all {seq_legal} sequential-legal plays are concurrent-legal, strictly",
        failures,
    )


def test_criterion_04_generator_soundness_and_coverage():
    failures = []
    checked = 0
    for lang in (SEQUENTIAL, CONCURRENT):
        for order, width in GEN_ARENAS:
            _, _, _, bad, _ = _generated_sample(lang, order, width)
            checked += GEN_COUNT
            failures += [
                f"{lang} order {order} width {width} {msg}" for msg in bad
            ]
    # every legal short play is reachable: it must occur as a sampled prefix
    arrow = make_arena(parse_type("unit -> unit"))
    want = {
        tuple((pm.move.token, pm.justifier) for pm in play)
        for play in enumerate_ref_legal(arrow, ref_check_sequential, 4)
        if len(play)
    }
    _, _, _, _, seen = _generated_sample(SEQUENTIAL, 1, 1)
    missing = want - seen
    if missing:
        failures.append(f"{len(missing)} of {len(want)} short plays never sampled")
    _verdict_line(
        4,
        f"{checked} generated plays all legal; all {len(want)} short plays covered",
        failures,
    )


def test_criterion_05_perturbation_distance_bound():
    arena = make_arena(uniform_tree(2, 1))
    vocab = build_vocab(arena)
    pseed = derive_seed(GEN_SEED, "perturb-bound")
    failures = []
    worst = 0
    collected = 0
    i = 0
    while collected < GEN_COUNT:
        play = generate_play(arena, SEQUENTIAL, 50, substream(pseed, "base", i))
        i += 1
        if len(play) != 50:
            continue
        seq = elide(play)
        out = perturb(seq, vocab, 0.1, substream(pseed, "edit", collected))
        dist = levenshtein(seq, out)
        if collected < 300 and dist != lev_matrix(seq[:-1], out[:-1]):
            failures.append(f"distance disagrees with full-matrix DP on sample {collected}")
        worst = max(worst, dist)
        if dist > 5:
            failures.append(f"sample {collected}: distance {dist} > 5")
            break
        collected += 1
    _verdict_line(
        5,
        f"{collected} perturbed length-50 plays, max verified distance {worst} <= 5",
        failures,
    )


def test_criterion_06_gradient_check():
    config = ModelConfig(
        vocab_size=4, embed_dim=8, hidden_dim=8, layers=2,
        unroll=4, batch=3, epochs=1, seed=5,
    )
    # in float64, where a 1e-5 central difference is meaningful
    model = LstmModel(config, init_model(config).vector.astype(np.float64))
    rng = substream(5, "gradcheck")
    ids = rng.integers(0, 4, (3, 4))
    targets = rng.integers(0, 4, (3, 4))
    grads = backward(model, ids, targets)
    step = 1e-5
    failures = []
    worst = 0.0
    for (name, p), (_, g) in zip(model.params(), grads.params()):
        flat_p = p.reshape(-1)
        flat_g = g.reshape(-1)
        for k in range(flat_p.size):
            keep = flat_p[k]
            flat_p[k] = keep + step
            up, _ = loss_bits(forward(model, ids)[0], targets)
            flat_p[k] = keep - step
            down, _ = loss_bits(forward(model, ids)[0], targets)
            flat_p[k] = keep
            numeric = (up - down) / (2 * step)
            # the 1e-5 central difference carries ~6e-10 roundoff (eps*f/h),
            # so near-zero gradients are compared against a 1e-4 floor
            denom = max(abs(numeric), abs(flat_g[k]), 1e-4)
            rel = abs(flat_g[k] - numeric) / denom
            worst = max(worst, rel)
            if rel > 1e-4:
                failures.append(f"{name}[{k}]: rel err {rel:.2e}")
                break
    _verdict_line(
        6, f"all {model.param_count()} gradients match, max rel err {worst:.2e}", failures
    )


def test_criterion_07_perplexity_calibration():
    arena = make_arena(parse_type("unit -> unit"))
    vocab = build_vocab(arena)
    failures = []
    flat = LstmModel(
        ModelConfig(vocab_size=len(vocab), embed_dim=8, hidden_dim=8, layers=2,
                    unroll=4, batch=2, epochs=1)
    )
    seqs = [vocab.encode(("q@ε", "a@ε", EOP)), vocab.encode(("q@ε", EOP))]
    zero_ppl = perplexity(flat, seqs).perplexity
    if abs(zero_ppl - len(vocab)) > 1e-9:
        failures.append(f"zero-weight model: {zero_ppl!r} != {len(vocab)}")

    pattern = vocab.encode(("q@ε", "q@1", "a@1", "a@ε", EOP))
    model = init_model(
        ModelConfig(vocab_size=len(vocab), embed_dim=64, hidden_dim=64, layers=2,
                    unroll=10, batch=4, epochs=2, seed=0)
    )
    train_model(model, np.tile(pattern, 2000))
    memorized = perplexity(model, [pattern] * 64).perplexity
    if memorized > 1.05:
        failures.append(f"memorization: {memorized:.4f} > 1.05 after 2 epochs")
    _verdict_line(
        7,
        f"zero-weight PPL {zero_ppl:.1f} = vocab, memorized PPL {memorized:.4f} <= 1.05",
        failures,
    )


def test_criterion_08_perturbation_detection(seq_desk):
    failures = []
    gap = abs(seq_desk["validation"] - seq_desk["train"]) / seq_desk["train"]
    ratio = seq_desk["perturbed"] / seq_desk["validation"]
    if gap > 0.25:
        failures.append(f"validation {gap:.1%} away from train (limit 25%)")
    if ratio < 2.0:
        failures.append(f"perturbed/validation {ratio:.2f} < 2")
    _verdict_line(
        8,
        f"validation within {gap:.1%} of train, perturbed {ratio:.1f}x validation",
        failures,
    )


def test_criterion_09_cross_language_detection(seq_desk, conc_desk):
    failures = []
    seq_ratio = seq_desk["cross"] / seq_desk["validation"]
    conc_ratio = conc_desk["cross"] / conc_desk["validation"]
    if seq_ratio < 10.0:
        failures.append(f"seq model on conc plays {seq_ratio:.2f}x < 10x validation")
    if conc_ratio > 3.0:
        failures.append(f"conc model on seq plays {conc_ratio:.2f}x > 3x validation")
    _verdict_line(
        9,
        f"seq-on-conc {seq_ratio:.1f}x validation, conc-on-seq {conc_ratio:.2f}x",
        failures,
    )


def test_criterion_10_determinism(seq_desk):
    failures = []
    for lang in (SEQUENTIAL, CONCURRENT):
        for order, width in GEN_ARENAS:
            arena, seed, text, _, _ = _generated_sample(lang, order, width)
            again = corpus_text(generate_corpus(arena, lang, GEN_COUNT, 50, seed))
            if again != text:
                failures.append(f"corpus {lang}/{order}/{width} not byte-identical")
    repeat = _desk_cell_ppls(SEQUENTIAL)
    if repeat != seq_desk:
        failures.append(f"desk perplexities changed on repeat: {repeat} vs {seq_desk}")
    _verdict_line(
        10, "regenerated corpora byte-identical, retrained perplexities identical",
        failures,
    )
