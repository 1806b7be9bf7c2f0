"""Computations made apart from the program, used to check its outputs.

Everything here reads the program's files (event logs, the catalog, dataset
and model files) straight from their documented formats and recomputes
with plain numpy what the program should have produced. Nothing imports
macronet, so a fault in the program cannot hide in its own reference.
"""

from __future__ import annotations

import hashlib
import struct
from pathlib import Path

import numpy as np

N_FEATURES = 210
N_CLASSES = 58
ENEMY_SLICE = slice(174, 207)
# Feature groups a..e in the order of their bits in a model's mask byte.
GROUP_SLICES = (slice(0, 58), slice(58, 116), slice(116, 174), slice(174, 207), slice(207, 210))
OWN_SECTIONS = ("units_buildings", "technologies", "upgrades")


class CheckFailed(Exception):
    """A program output disagrees with the independent computation."""


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


# ---------------------------------------------------------------------------
# Text formats
# ---------------------------------------------------------------------------


def read_catalog_names(path: Path) -> tuple[list[str], list[str]]:
    """(own build names in id order, enemy type names in id order)."""
    sections: dict[str, list[str]] = {}
    current = None
    for raw in Path(path).read_text(encoding="utf-8").splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("["):
            current = line.strip("[]").strip()
            sections[current] = []
            continue
        sections[current].append(line.split(",")[0].strip())
    own = [name for s in OWN_SECTIONS for name in sections[s]]
    return own, sections["enemy_types"]


def read_events(path: Path) -> tuple[str, list[tuple[int, str, str]]]:
    """(game id, [(frame, kind, name)]) from one ``.events`` file."""
    game_id = None
    events = []
    for raw in Path(path).read_text(encoding="utf-8").splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if game_id is None:
            game_id = line.split(" ", 1)[1].strip()
            continue
        frame, kind, name = line.split()
        events.append((int(frame), kind, name))
    return game_id, events


def produced_actions(events, build_ids: dict[str, int]) -> np.ndarray:
    return np.array([build_ids[n] for _, k, n in events if k == "produced"], dtype=np.int64)


# ---------------------------------------------------------------------------
# Binary formats
# ---------------------------------------------------------------------------


class _Reader:
    def __init__(self, data: bytes):
        self.data = data
        self.pos = 0

    def take(self, n: int) -> bytes:
        require(self.pos + n <= len(self.data), "file is truncated")
        chunk = self.data[self.pos : self.pos + n]
        self.pos += n
        return chunk

    def unpack(self, fmt: str):
        return struct.unpack(fmt, self.take(struct.calcsize(fmt)))

    def text(self) -> str:
        (n,) = self.unpack(">H")
        return self.take(n).decode("utf-8")


def read_dataset(path: Path) -> dict:
    """{'catalog_hash', 'norms_hash', 'games': [(game_id, actions, vectors)]}."""
    r = _Reader(Path(path).read_bytes())
    require(r.take(4) == b"MNDS", "dataset magic")
    version, n_features, n_classes = r.unpack(">III")
    require((version, n_features, n_classes) == (1, N_FEATURES, N_CLASSES), "dataset header")
    catalog_hash, norms_hash = r.text(), r.text()
    (n_games,) = r.unpack(">I")
    games = []
    for _ in range(n_games):
        game_id = r.text()
        (n,) = r.unpack(">I")
        actions = np.frombuffer(r.take(2 * n), dtype=">u2").astype(np.int64)
        vectors = np.frombuffer(r.take(8 * n * N_FEATURES), dtype=">f8")
        games.append((game_id, actions, vectors.reshape(n, N_FEATURES).astype(np.float64)))
    require(r.pos == len(r.data), "trailing bytes after the last game")
    return {"catalog_hash": catalog_hash, "norms_hash": norms_hash, "games": games}


def read_model(path: Path) -> dict:
    """{'mask_bits', 'layers': [(W, b)], 'version'}; version is the first 12
    hex digits of the SHA-256 of every W then b in big-endian doubles."""
    r = _Reader(Path(path).read_bytes())
    require(r.take(5) == b"MNNET", "model magic")
    version, mask_bits = r.unpack(">IB")
    require(version == 1, "model version")
    r.text(), r.text()
    (n_sizes,) = r.unpack(">H")
    sizes = r.unpack(f">{n_sizes}I")
    digest = hashlib.sha256()
    layers = []
    for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
        w_raw, b_raw = r.take(8 * fan_in * fan_out), r.take(8 * fan_out)
        digest.update(w_raw)
        digest.update(b_raw)
        W = np.frombuffer(w_raw, dtype=">f8").reshape(fan_out, fan_in).astype(np.float64)
        layers.append((W, np.frombuffer(b_raw, dtype=">f8").astype(np.float64)))
    require(r.pos == len(r.data), "trailing bytes after the model")
    return {"mask_bits": mask_bits, "layers": layers, "version": digest.hexdigest()[:12]}


# ---------------------------------------------------------------------------
# The method
# ---------------------------------------------------------------------------


def masked(X: np.ndarray, mask_bits: int, blind: bool = False) -> np.ndarray:
    X = np.array(X, dtype=np.float64, copy=True)
    for bit, cols in enumerate(GROUP_SLICES):
        if not mask_bits >> bit & 1:
            X[..., cols] = 0.0
    if blind:
        X[..., ENEMY_SLICE] = 0.0
    return X


def forward(model: dict, X: np.ndarray, blind: bool = False) -> np.ndarray:
    """Softmax outputs of the ReLU MLP for a (n, 210) batch, mask applied."""
    a = masked(np.atleast_2d(X), model["mask_bits"], blind)
    last = len(model["layers"]) - 1
    for i, (W, b) in enumerate(model["layers"]):
        z = a @ W.T + b
        if i == last:
            e = np.exp(z - z.max(axis=1, keepdims=True))
            return e / e.sum(axis=1, keepdims=True)
        a = np.maximum(z, 0.0)
    raise AssertionError("model has no layers")


def topk_errors(probs: np.ndarray, y: np.ndarray, ks=(1, 3, 10)) -> dict[int, float]:
    """A label's rank counts every class above it, and every class tied with
    it at a lower index; top-k misses when the rank is k or more."""
    ranks = []
    for p, label in zip(probs, y):
        ranks.append(int((p > p[label]).sum() + (p[:label] == p[label]).sum()))
    ranks = np.array(ranks)
    return {k: float((ranks >= k).mean()) for k in ks}


def split_point(pair_counts, fraction: float = 0.8) -> int:
    """Number of leading games in the training part: the whole-game boundary
    whose cumulative pair count is nearest fraction * total, first on ties."""
    target = fraction * sum(pair_counts)
    best_k, best_gap, cum = 0, float("inf"), 0
    for k, n in enumerate(pair_counts, start=1):
        cum += n
        if abs(cum - target) < best_gap:
            best_k, best_gap = k, abs(cum - target)
    return best_k


def excluded_distribution(dist: np.ndarray, excluded) -> np.ndarray:
    out = np.array(dist, dtype=np.float64, copy=True)
    idx = sorted(set(excluded))
    if idx:
        mass = out[idx].sum()
        out[idx] = 0.0
        out /= 1.0 - mass
    return out


def sample_index(dist: np.ndarray, server_seed: int, policy_seed: int) -> int:
    """The service's probabilistic pick for a request carrying a policy seed:
    one uniform draw from the stream seeded [server seed, policy seed],
    looked up in the cumulative distribution."""
    u = np.random.default_rng([server_seed, policy_seed]).random()
    idx = int(np.searchsorted(np.cumsum(dist), u, side="right"))
    if idx >= len(dist):
        idx = int(np.flatnonzero(dist > 0.0)[-1])
    return idx
