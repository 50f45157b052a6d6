"""Game-semantics play laboratory.

Arenas from type signatures, legality checking and generation of sequential
and concurrent plays, corpus serialization and perturbation, an LSTM
language model over move tokens, and the perturbation / cross-language
perplexity experiments built on top.
"""

from .arena import (
    Arena,
    MoveId,
    TypeSyntaxError,
    TypeTree,
    UnknownMoveError,
    arena_order,
    arena_width,
    make_arena,
    move_player,
    parse_token,
    parse_type,
    render_type,
    uniform_tree,
)
from .corpus import (
    EOP,
    Corpus,
    CorpusFormatError,
    TokenSeq,
    Vocab,
    build_vocab,
    corpus_text,
    elide,
    generate_corpus,
    generate_play,
    is_complete,
    levenshtein,
    perturb,
    perturb_corpus,
    read_corpus,
    write_corpus,
)
from .experiment import (
    CROSS_LANGUAGE,
    PERTURBED,
    ExperimentSpec,
    Report,
    ReportCell,
    emit_figure,
    emit_report,
    parse_report,
    run_cell,
    run_cross_language_experiment,
    run_grid,
    run_perturbation_experiment,
)
from .play import (
    CONCURRENT,
    LANGUAGES,
    SEQUENTIAL,
    PointedMove,
    PointedPlay,
    Verdict,
    check_concurrent,
    check_sequential,
    format_pointed,
    justification_assignments,
)
from .rng import (
    derive_key,
    derive_seed,
    substream,
)
from .seqmodel import (
    Evaluation,
    LstmModel,
    ModelConfig,
    ModelFormatError,
    backward,
    forward,
    init_model,
    learning_rate,
    load_model,
    loss_bits,
    perplexity,
    save_model,
    sgd_epoch,
    step_cell,
    train_model,
)

__version__ = "0.1.0"
