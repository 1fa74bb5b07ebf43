"""Plain-text key/value run configuration and the run manifest.

Config files are `key = value` lines (# comments, blank lines allowed) with
dotted keys: `env.preset` and overrides of that preset's fields describe the
environment, `train.*` the training loop, `experiment.seeds` a sweep's
seeds. No list of keys is kept here: each builder pops the keys it reads
from the dict it is given (a key of its group that names no field is
refused), and the caller refuses whatever is left. Every run archives its
exact config text in a manifest whose hash pins the run for bit-exact
re-execution.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import time
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from . import __version__
from .core import ConfigError
from .envs import PRESETS
from .training import RewardMode, TrainingConfig


def parse_config_text(text: str) -> dict[str, str]:
    out: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if not key:
            raise ConfigError(f"line {lineno}: empty key")
        if key in out:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        out[key] = value
    return out


def load_config(path) -> dict[str, str]:
    return parse_config_text(Path(path).read_text())


def config_hash(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def apply_overrides(kv: dict[str, str], overrides: list[str]) -> dict[str, str]:
    """Apply repeated `--set key=value` overrides."""
    out = dict(kv)
    for item in overrides:
        if "=" not in item:
            raise ConfigError(f"override {item!r} is not key=value")
        key, value = (part.strip() for part in item.split("=", 1))
        if not key:
            raise ConfigError(f"override {item!r} has an empty key")
        out[key] = value
    return out


def _convert(name: str, value: str, typ: str) -> object:
    """`value` as the field type named by `typ`, a string annotation."""
    try:
        if typ == "bool":
            low = value.lower()
            if low in ("true", "1", "yes", "on"):
                return True
            if low in ("false", "0", "no", "off"):
                return False
            raise ValueError(value)
        if typ == "int":
            return int(value)
        if typ == "float":
            return float(value)
        if typ == "RewardMode":
            return RewardMode(value)
        if typ.startswith("tuple"):
            parts = [p for p in value.replace("x", ",").split(",") if p.strip()]
            return tuple(float(p) if "float" in typ else int(p) for p in parts)
    except (ValueError, TypeError):
        raise ConfigError(f"bad value for {name}: {value!r}") from None
    raise ConfigError(f"cannot convert key {name} of type {typ}")


def _dataclass_kwargs(cls, prefix: str, kv: dict[str, str], leave: tuple[str, ...] = ()) -> dict:
    """Pops every `<prefix>.<field>` key of kv but those named in `leave`
    and returns their converted values; a key that names no field of cls
    (such as a corridor key for a skirmish env) is a ConfigError."""
    kwargs = {}
    by_name = {f.name: f for f in fields(cls)}
    for key in [k for k in kv if k.startswith(prefix + ".")]:
        name = key[len(prefix) + 1 :]
        if name in leave:
            continue
        f = by_name.get(name)
        if f is None:
            raise ConfigError(f"config key {key!r} does not apply to {cls.__name__}")
        kwargs[name] = _convert(key, kv.pop(key), f.type)
    return kwargs


def build_env_config(kv: dict[str, str]):
    """Environment config from the `env.*` keys it pops: `env.preset`
    names a preset, and the other keys override that preset's fields."""
    preset_name = kv.pop("env.preset", None)
    if preset_name is None:
        raise ConfigError("config needs env.preset")
    if preset_name not in PRESETS:
        raise ConfigError(f"unknown preset {preset_name!r}; known: {sorted(PRESETS)}")
    base = PRESETS[preset_name]
    return dataclasses.replace(base, **_dataclass_kwargs(type(base), "env", kv))


def build_training_config(kv: dict[str, str], seed: int, leave: tuple[str, ...] = ()) -> TrainingConfig:
    """Training config from the `train.*` keys it pops, with the given
    seed; it leaves `train.seed` unread, as the seed has its own flag, and
    the fields named in `leave`, which the caller sets itself."""
    kwargs = _dataclass_kwargs(TrainingConfig, "train", kv, leave=("seed", *leave))
    return TrainingConfig(**kwargs, seed=seed)


def build_experiment_seeds(kv: dict[str, str]) -> list[int] | None:
    """Seeds of a sweep from the `experiment.seeds` key it pops, a comma
    list (None when unset, for the spec's default; an empty value is a
    ConfigError, as is any seed that is no integer). Its evaluations are
    sized by `train.eval_episodes`."""
    seeds = kv.pop("experiment.seeds", None)
    if seeds is None:
        return None
    return [_convert("experiment.seeds", s, "int") for s in seeds.split(",")]


def config_to_text(kv: dict[str, str]) -> str:
    return "\n".join(f"{k} = {v}" for k, v in sorted(kv.items())) + "\n"


THREAD_ENV_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


@dataclass
class RunManifest:
    """Atomic record of what a run was: config, seeds, code version, and the
    artifacts it produced, the files under its directory that the run
    created or changed."""

    command: str
    config_text: str
    seed: int
    code_version: str = __version__
    config_digest: str = ""
    started: str = ""
    finished: str = ""
    status: str = "running"
    artifacts: list[str] = field(default_factory=list)
    # policy bits depend on numpy and the BLAS thread count, so the run
    # records them; None in a manifest written before they were recorded
    numpy_version: str | None = np.__version__
    cpu_count: int | None = field(default_factory=os.cpu_count)
    thread_env: dict[str, str | None] | None = field(
        default_factory=lambda: {name: os.environ.get(name) for name in THREAD_ENV_VARS}
    )
    # why a failed run stopped; None while running, when done, and in a
    # manifest written before failures were recorded
    error: str | None = None

    def __post_init__(self) -> None:
        if not self.config_digest:
            self.config_digest = config_hash(self.config_text)
        if not self.started:
            self.started = _now()

    def write(self, path) -> None:
        path = Path(path)
        payload = json.dumps(dataclasses.asdict(self), indent=2, sort_keys=True)
        tmp = path.with_suffix(path.suffix + ".tmp")
        tmp.write_text(payload)
        os.replace(tmp, path)

    def start(self, path) -> None:
        """Make the run directory, write the running manifest to `path` in
        it and stamp the files already there, for `finalize` to tell which
        ones the run wrote."""
        self._path = Path(path)
        self._path.parent.mkdir(parents=True, exist_ok=True)
        self._stamps = _file_stamps(self._path.parent)
        self.write(self._path)

    def finalize(self, status: str = "done", error: str | None = None) -> None:
        """Rewrite the started manifest as `status`, listing as artifacts,
        sorted, the files other than itself that are new or changed since
        `start`. Stamps, not the clock, tell them: file times are coarse."""
        stamps = _file_stamps(self._path.parent)
        self.artifacts = sorted(
            p for p, stamp in stamps.items() if p != str(self._path) and self._stamps.get(p) != stamp
        )
        self.finished = _now()
        self.status = status
        self.error = error
        self.write(self._path)

    @classmethod
    def load(cls, path) -> "RunManifest":
        data = json.loads(Path(path).read_text())
        for name in ("numpy_version", "cpu_count", "thread_env", "error"):
            data.setdefault(name, None)
        return cls(**data)

    def verify(self) -> bool:
        return config_hash(self.config_text) == self.config_digest


def _file_stamps(root: Path) -> dict[str, tuple[int, int]]:
    """(st_mtime_ns, st_size) of every file under root, by path."""
    stats = {str(path): path.stat() for path in root.rglob("*") if path.is_file()}
    return {path: (st.st_mtime_ns, st.st_size) for path, st in stats.items()}


def _now() -> str:
    return time.strftime("%Y-%m-%dT%H:%M:%S", time.gmtime())
