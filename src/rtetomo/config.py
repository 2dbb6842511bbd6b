"""Run configuration: a flat key=value file with typed defaults.

Defaults reproduce the full-scale noiseless letter-A study: half-widths
1/2 for both the medium and the source segment, slab from 1 to 2, bump
sources of radius 0.05, scattering level 5, absorber level 5,
acquisition step 1/40, inversion step 1/20, weight exponent 5, Tikhonov
weight 1e-3, viscosity 1e-2.  Desk-scale runs override the two steps and
keep everything else.  The file key for the weight exponent is
``lambda`` (so is the CLI flag); the attribute is ``lam`` to stay clear
of the Python keyword.  :func:`load_config` converts file values as it
reads them, lays the CLI's flags on top and builds one :class:`RunConfig`,
which checks the merged values once and keeps what the checks built.
"""

import hashlib
import math
from dataclasses import dataclass, fields
from pathlib import Path

from .errors import UsageError
from .forward import KernelModel, SourceModel
from .geometry import Geometry, GridSet
from .inverse import check_weights
from .phantom import check_phantom


def _file_key(attr):
    return "lambda" if attr == "lam" else attr


@dataclass(frozen=True)
class RunConfig:
    """Everything one experiment needs, hashable as canonical text.

    Construction keeps the checked ``geometry``, ``source`` and ``kernel``
    as attributes that are not fields, so equality and hashing ignore them.
    """

    half_width: float = 0.5
    slab_bottom: float = 1.0
    slab_top: float = 2.0
    source_half_width: float = 0.5
    sigma: float = 0.05
    anisotropy: float = 0.5
    mu_s: float = 5.0
    letter: "str | None" = "A"
    c_a: float = 5.0
    h_forward: float = 0.025
    h_inverse: float = 0.05
    lam: float = 5.0
    gamma: float = 1e-3
    epsilon: float = 1e-2
    delta: float = 0.0
    seed: int = 0
    out: str = "run"

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, float) and not math.isfinite(value):
                raise UsageError(f"{_file_key(f.name)} must be finite, got {value!r}")
        if not isinstance(self.seed, int):
            raise UsageError(f"seed must be an integer, got {self.seed!r}")
        # Each rule lives with the constructor that needs it.
        geometry = Geometry(self.half_width, self.slab_bottom, self.slab_top, self.source_half_width)
        kernel = KernelModel(anisotropy=self.anisotropy, aperture_half_width=self.source_half_width)
        object.__setattr__(self, "geometry", geometry)
        object.__setattr__(self, "source", SourceModel.build(self.sigma))
        object.__setattr__(self, "kernel", kernel)
        # A phantom may lack scattering; a run's contrast is relative to mu_s.
        if not self.mu_s > 0:
            raise UsageError(f"mu_s must be positive, got {self.mu_s!r}")
        check_phantom(self.letter, self.c_a, self.mu_s)
        if self.h_forward <= 0 or self.h_inverse <= 0:
            raise UsageError("grid steps must be positive")
        ratio = self.h_inverse / self.h_forward
        if not math.isfinite(ratio) or abs(ratio - round(ratio)) > 1e-9 or round(ratio) < 1:
            raise UsageError("inversion step must be an integer multiple of the forward step")
        # Both grids must exist, so a geometry that `invert` would refuse
        # is refused before `forward` writes anything.
        for key in ("h_forward", "h_inverse"):
            try:
                GridSet.uniform(geometry, getattr(self, key))
            except UsageError as exc:
                raise UsageError(f"{key}={getattr(self, key)!r}: {exc}") from None
        check_weights(self.lam, self.gamma, self.epsilon)
        if self.delta < 0:
            raise UsageError("noise level delta must be non-negative")
        if self.seed < 0:
            raise UsageError("seed must be non-negative")
        if not self.out:
            raise UsageError("output directory must be non-empty")

    @property
    def downsample_factor(self):
        """Acquisition-to-inversion grid ratio (validated to be integral)."""
        return round(self.h_inverse / self.h_forward)


def geometry_of(config):
    """The :class:`Geometry` the configuration describes."""
    return config.geometry


def _coerce(attr, value):
    """File/flag text to the typed attribute value; typed input passes through."""
    if not isinstance(value, str):
        return value
    if attr == "letter":
        return None if value.lower() in ("", "none") else value
    if attr == "out":
        return value
    if attr == "seed":
        try:
            return int(value)
        except ValueError:
            raise UsageError(f"seed expects an integer, got {value!r}") from None
    try:
        return float(value)
    except ValueError:
        raise UsageError(f"{_file_key(attr)} expects a number, got {value!r}") from None


def load_config(path=None, **overrides):
    """The :class:`RunConfig` of a flat key=value file with overrides on top.

    The file is UTF-8 text.  Blank lines and '#' comments are skipped;
    unknown keys, repeated keys, and unparsable values are usage errors
    naming the file and line.  Overrides are attribute names (``lam``)
    whose None values are dropped.  Keys set by neither keep their defaults.
    """
    attrs = {_file_key(f.name): f.name for f in fields(RunConfig)}
    try:
        text = "" if path is None else Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise UsageError(f"cannot read config {path}: {exc}") from None
    keys = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise UsageError(f"{path}:{lineno}: expected key=value, got {raw!r}")
        key, _, val = line.partition("=")
        key = key.strip()
        if key not in attrs:
            raise UsageError(f"{path}:{lineno}: unknown key {key!r}")
        attr = attrs[key]
        if attr in keys:
            raise UsageError(f"{path}:{lineno}: repeated key {key!r}")
        try:
            keys[attr] = _coerce(attr, val.strip())
        except UsageError as exc:
            raise UsageError(f"{path}:{lineno}: {exc}") from None
    keys.update((k, _coerce(k, v)) for k, v in overrides.items() if v is not None)
    return RunConfig(**keys)


def config_lines(config):
    """Canonical key=value lines, one per field, floats at 17 digits."""
    out = []
    for f in fields(config):
        v = getattr(config, f.name)
        if f.name == "letter":
            text = "none" if v is None else v
        elif f.name == "seed":
            text = str(int(v))
        elif f.name == "out":
            text = v
        else:
            text = format(float(v), ".17g")
        out.append(f"{_file_key(f.name)}={text}")
    return out


def config_hash(config):
    """First 16 hex digits of the sha256 over the experiment lines.

    Every field enters except the output directory: the hash identifies
    the experiment (physics, grids, noise, seed), and the same experiment
    written to two places must produce byte-identical data files.
    """
    lines = [line for line in config_lines(config) if not line.startswith("out=")]
    blob = "\n".join(lines).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()[:16]
