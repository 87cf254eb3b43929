"""Checkpoint persistence: a text key-value header followed by binary
little-endian float64 blocks and int64 replay-buffer blocks. The float64
blocks are the online and the target parameter vectors, then Adam's first
and second moment vectors, each in the layout of approximator.MlpParams.
The int64 block holds the replay, one row of 2H + 1 integers per
trajectory, in the layout of replay.py.

The checkpoint holds training's state only (networks, optimizer moments,
step count, rng state, buffer contents); every setting comes from the
config it is resumed with. So a resumed run under the same config
reproduces an uninterrupted one bit-exactly.
"""

import json
import os
from dataclasses import dataclass

import numpy as np

from .approximator import MlpParams, param_count
from .config import _ints_in
from .errors import FormatError

FORMAT_VERSION = 4


@dataclass
class Checkpoint:
    config_digest: str
    structure: dict         # see runner.structure; includes layer_sizes
    step_count: int         # Adam's updates, a failed last one included
    m: np.ndarray           # Adam's first moment vector
    v: np.ndarray           # Adam's second moment vector
    rng_state: dict
    online: MlpParams
    target: MlpParams
    replay: np.ndarray      # (n, 2H+1) int64: replay.py's rows


def save_checkpoint(path, ck):
    """Write through a temporary file in the same directory, then rename it
    over `path`, so a failed write leaves any previous file intact."""
    f64_bytes = b"".join(a.astype("<f8").tobytes() for a in (
        ck.online.theta, ck.target.theta, ck.m, ck.v))
    header = {
        "config_digest": ck.config_digest,
        "structure": ck.structure,
        "step_count": ck.step_count,
        "rng": ck.rng_state,
        "n_trajectories": len(ck.replay),
        "horizon": ck.replay.shape[1] // 2,
    }
    head = (f"ssm-diffusion-checkpoint v{FORMAT_VERSION}\n"
            + json.dumps(header, sort_keys=True) + "\nEND\n").encode()
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "wb") as fh:
            fh.write(head)
            fh.write(f64_bytes)
            fh.write(ck.replay.astype("<i8").tobytes())
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


def _take(buf, offset, count, kind):
    """The next block of `count` little-endian float64 ("f8") or int64
    ("i8") values."""
    if offset + 8 * count > len(buf):
        raise FormatError(f"truncated checkpoint at offset {offset}")
    arr = np.frombuffer(buf, dtype="<" + kind, count=count, offset=offset)
    return arr.astype(kind), offset + 8 * count


def _rng_state(v):
    try:
        np.random.default_rng().bit_generator.state = v
    except (KeyError, TypeError, ValueError, OverflowError):
        return False
    return True


# the header fields that loading or resuming reads, each with its check; the
# other structure fields are compared with the config before use
_FIELDS = {
    "config_digest": lambda v: isinstance(v, str),
    **dict.fromkeys(["step_count", "horizon", "n_trajectories"],
                    lambda v: _ints_in([v], 0, np.inf)),
    "structure.layer_sizes": lambda v: _ints_in(v, 1, np.inf) and len(v) > 1,
    "rng": _rng_state}


def _check_header(header):
    for path, ok in _FIELDS.items():
        value = header
        for key in path.split("."):
            value = value.get(key) if isinstance(value, dict) else None
        if not ok(value):
            raise FormatError(f"checkpoint header field {path} missing or "
                              f"malformed: {value!r}")


def load_checkpoint(path):
    try:
        with open(path, "rb") as fh:
            buf = fh.read()
    except OSError as exc:
        raise FormatError(f"cannot read checkpoint {path}: {exc.strerror}") \
            from exc
    end = buf.find(b"\nEND\n")
    if end < 0:
        raise FormatError("missing END marker in checkpoint header")
    lines = buf[:end].decode(errors="replace").split("\n", 1)
    if lines[0] != f"ssm-diffusion-checkpoint v{FORMAT_VERSION}":
        raise FormatError(f"unsupported checkpoint version line {lines[0]!r}")
    try:
        header = json.loads(lines[1])
    except (IndexError, ValueError) as exc:
        raise FormatError(f"corrupt checkpoint header: {exc}") from exc
    _check_header(header)
    offset = end + 5
    sizes = header["structure"]["layer_sizes"]
    n_params = param_count(sizes)
    online, offset = _take(buf, offset, n_params, "f8")
    target, offset = _take(buf, offset, n_params, "f8")
    m, offset = _take(buf, offset, n_params, "f8")
    v, offset = _take(buf, offset, n_params, "f8")
    H = header["horizon"]
    rows, offset = _take(buf, offset, header["n_trajectories"] * (2 * H + 1),
                         "i8")
    if offset != len(buf):
        raise FormatError(f"{len(buf) - offset} bytes after the last "
                          "checkpoint block")
    return Checkpoint(
        config_digest=header["config_digest"], structure=header["structure"],
        step_count=header["step_count"], m=m, v=v, rng_state=header["rng"],
        online=MlpParams(layer_sizes=list(sizes), theta=online),
        target=MlpParams(layer_sizes=list(sizes), theta=target),
        replay=rows.reshape(-1, 2 * H + 1))
