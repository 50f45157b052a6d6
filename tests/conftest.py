import dataclasses
import errno
import hashlib
import json
import os

import numpy as np
import pytest

import playlab.fileio
from playlab.arena import make_arena, parse_type
from playlab.experiment import ExperimentSpec
from playlab.seqmodel import INIT_SCALE, MAX_GRAD_NORM, learning_rate

from oracles import play_of

# The two running example plays over unit -> unit -> unit: run the first
# argument to completion, then the second (legal sequentially and
# concurrently), and the interleaved variant that opens both arguments
# before either answer arrives (legal concurrently only).
SEQ_COMPOSITION_PLAY = play_of(
    ("q@ε", None),
    ("q@1", 0),
    ("a@1", 1),
    ("q@2", 0),
    ("a@2", 3),
    ("a@ε", 0),
)

PAR_COMPOSITION_PLAY = play_of(
    ("q@ε", None),
    ("q@1", 0),
    ("q@2", 0),
    ("a@1", 1),
    ("a@2", 2),
    ("a@ε", 0),
)

# The smallest grid that trains: both languages and widths 1 and 5 at order
# 1, with enough plays for one batch 20 x (unroll 20 + 1) training window.
TINY_SPEC = ExperimentSpec(
    orders=(1,), train_sizes=(100,), eval_size=20, hidden_dim=8, epochs=1, seed=3
)


@pytest.fixture(scope="session")
def unit_arena():
    return make_arena(parse_type("unit"))


@pytest.fixture(scope="session")
def arrow_arena():
    return make_arena(parse_type("unit -> unit"))


@pytest.fixture(scope="session")
def two_arg_arena():
    return make_arena(parse_type("unit -> unit -> unit"))


@pytest.fixture(scope="session")
def order2_arena():
    return make_arena(parse_type("(unit -> unit) -> unit"))


class _HalfThenFull:
    """A file that stores the first half of a write, then fails as a full
    disk would."""

    def __init__(self, f):
        self.f = f

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.f.close()

    def write(self, data):
        self.f.write(data[: len(data) // 2])
        self.f.flush()
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))


@pytest.fixture()
def disk_full_midway(monkeypatch):
    """Writes through ``playlab.fileio`` fail halfway."""
    monkeypatch.setattr(
        playlab.fileio, "open",
        lambda *args, **kwargs: _HalfThenFull(open(*args, **kwargs)),
        raising=False,
    )


def config_block(data: bytes) -> tuple[dict, int]:
    """A model container's config JSON, and the offset where it ends."""
    end = 16 + int.from_bytes(data[8:16], "little")
    return json.loads(data[16:end]), end


def rewrite_config(path, drop=(), **fields) -> None:
    """Edit a model container's config block, with a checksum to match:
    remove the ``drop`` keys, then set ``fields``."""
    data = path.read_bytes()
    recorded, end = config_block(data)
    for key in drop:
        del recorded[key]
    recorded.update(fields)
    blob = json.dumps(recorded, sort_keys=True).encode("utf-8")
    body = data[:8] + len(blob).to_bytes(8, "little") + blob + data[end:-32]
    path.write_bytes(body + hashlib.sha256(body).digest())


def version1_container(model) -> bytes:
    """``model`` in the container layout of format version 1: the config
    block without the dtype and arena keys, and a float64 payload."""
    config = model.config
    blob = json.dumps(dict(
        dataclasses.asdict(config),
        lr_schedule=[learning_rate(e) for e in range(1, config.epochs + 1)],
        max_grad_norm=MAX_GRAD_NORM,
        init_scale=INIT_SCALE,
    ), sort_keys=True).encode("utf-8")
    body = (b"PLLM" + (1).to_bytes(4, "little") + len(blob).to_bytes(8, "little") + blob
            + model.vector.astype(np.float64).tobytes())
    return body + hashlib.sha256(body).digest()
