"""Run configuration: a flat key=value file with typed defaults.

Defaults reproduce the full-scale noiseless letter-A study: half-widths
1/2 for both the medium and the source segment, slab from 1 to 2, bump
sources of radius 0.05, scattering level 5, absorber level 5,
acquisition step 1/40, inversion step 1/20, weight exponent 5, Tikhonov
weight 1e-3, viscosity 1e-2.  Desk-scale runs override the two steps and
keep everything else.  The file key for the weight exponent is
``lambda`` (so is the CLI flag); the attribute is ``lam`` to stay clear
of the Python keyword.  :func:`load_config` reads file and flag values
through one table of text forms, which :func:`config_lines` writes by,
lays the flags on top and builds one :class:`RunConfig`, which checks
the merged values once and keeps what the checks built.
"""

import hashlib
import math
import numbers
from dataclasses import dataclass, fields
from pathlib import Path
from types import SimpleNamespace

from .boundary import check_acquisition_grid, check_noise_level
from .errors import UsageError, is_integer
from .forward import KernelModel, SourceModel, check_source_radius
from .geometry import Geometry, GridSet
from .inverse import check_inversion_grid, check_weights
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
            value, key = getattr(self, f.name), _file_key(f.name)
            if f.type is float and (isinstance(value, bool) or not isinstance(value, numbers.Real)):
                raise UsageError(f"{key} expects a number, got {value!r}")
            if f.type is str and not isinstance(value, str):
                raise UsageError(f"{key} expects a str, got {value!r}")
            if isinstance(value, float) and not math.isfinite(value):
                raise UsageError(f"{key} must be finite, got {value!r}")
        if not is_integer(self.seed):
            raise UsageError(f"seed must be an integer, got {self.seed!r}")
        # Each rule lives with the constructor that needs it.
        geometry = Geometry(self.half_width, self.slab_bottom, self.slab_top, self.source_half_width)
        kernel = KernelModel(anisotropy=self.anisotropy, aperture_half_width=self.source_half_width)
        object.__setattr__(self, "geometry", geometry)
        object.__setattr__(self, "source", SourceModel.build(self.sigma))
        object.__setattr__(self, "kernel", kernel)
        check_source_radius(self.source, geometry)
        # A phantom may lack scattering; a run's contrast is relative to mu_s.
        if not self.mu_s > 0:
            raise UsageError(f"mu_s must be positive, got {self.mu_s!r}")
        check_phantom(self.letter, self.c_a, self.mu_s)
        if self.h_forward <= 0 or self.h_inverse <= 0:
            raise UsageError("grid steps must be positive")
        ratio = self.h_inverse / self.h_forward
        if not math.isfinite(ratio) or abs(ratio - round(ratio)) > 1e-9 or round(ratio) < 1:
            raise UsageError("inversion step must be an integer multiple of the forward step")
        # The step `downsample_boundary` builds, which may differ in the last place.
        object.__setattr__(self, "h_inverse", self.h_forward * round(ratio))
        # Both grids must exist and suit their stencils, so a configuration
        # that `invert` would refuse is refused before `forward` writes anything.
        for key, check in (("h_forward", check_acquisition_grid), ("h_inverse", check_inversion_grid)):
            try:
                check(GridSet.uniform(geometry, getattr(self, key)))
            except UsageError as exc:
                raise UsageError(f"{key}={getattr(self, key)!r}: {exc}") from None
        check_weights(self.lam, self.gamma, self.epsilon)
        check_noise_level(self.delta)
        if self.seed < 0:
            raise UsageError("seed must be non-negative")
        if not self.out:
            raise UsageError("output directory must be non-empty")
        # A manifest must read back the out it was written with.
        if "#" in self.out or self.out.splitlines() != [self.out.strip()]:
            raise UsageError(f"out={self.out!r} must hold no '#' or line break, nor start or end with whitespace")

    @property
    def downsample_factor(self):
        """Acquisition-to-inversion grid ratio (validated to be integral)."""
        return round(self.h_inverse / self.h_forward)


def geometry_of(config):
    """The :class:`Geometry` the configuration describes."""
    return config.geometry


# The text form, as (read, write), of each field that is not a float and
# of a manifest's config_hash line; every other field reads with ``float``
# and writes at 17 significant digits.
_FLOAT_FORM = (float, lambda v: format(float(v), ".17g"))
_TEXT_FORMS = {
    "letter": (lambda s: None if s.lower() in ("", "none") else s, lambda v: "none" if v is None else v),
    "seed": (int, lambda v: str(int(v))),
    "out": (str, str),
    "config_hash": (str, str),
}
_DEFAULTS = {f.name: f.default for f in fields(RunConfig)}


def _coerce(attr, value):
    """File/flag text to the typed attribute value; typed input passes through."""
    if not isinstance(value, str):
        return value
    try:
        return _TEXT_FORMS.get(attr, _FLOAT_FORM)[0](value)
    except ValueError:
        kind = "an integer" if attr == "seed" else "a number"
        raise UsageError(f"{_file_key(attr)} expects {kind}, got {value!r}") from None


def load_config(path=None, **overrides):
    """The :class:`RunConfig` of a flat key=value file with overrides on top.

    The file is UTF-8 text.  Blank lines and '#' comments are skipped;
    unknown keys, repeated keys, and unparsable values are usage errors
    naming the file and line.  A ``config_hash`` line, as a manifest ends
    with, must equal the hash of the configuration the file's keys
    describe.  Overrides are attribute names (``lam``) whose None values
    are dropped.  Keys set by neither keep their defaults.
    """
    attrs = {_file_key(name): name for name in [*_DEFAULTS, "config_hash"]}
    try:
        text = "" if path is None else Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise UsageError(f"cannot read config {path}: {exc}") from None
    keys, linenos = {}, {}
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
        if key in linenos:
            raise UsageError(f"{path}:{lineno}: repeated key {key!r}")
        linenos[key] = lineno
        try:
            keys[attrs[key]] = _coerce(attrs[key], val.strip())
        except UsageError as exc:
            raise UsageError(f"{path}:{lineno}: {exc}") from None
    stored = keys.pop("config_hash", None)
    if stored is not None and stored != config_hash(SimpleNamespace(**_DEFAULTS | keys)):
        raise UsageError(f"{path}:{linenos['config_hash']}: config_hash {stored} does not match the keys")
    keys.update((k, _coerce(k, v)) for k, v in overrides.items() if v is not None)
    return RunConfig(**keys)


def config_lines(config):
    """Canonical key=value lines, one per field, through the text forms."""
    forms = ((name, _TEXT_FORMS.get(name, _FLOAT_FORM)[1]) for name in _DEFAULTS)
    return [f"{_file_key(name)}={write(getattr(config, name))}" for name, write in forms]


def config_hash(config):
    """First 16 hex digits of the sha256 over the experiment lines.

    Every field enters except the output directory: the hash identifies
    the experiment (physics, grids, noise, seed), and the same experiment
    written to two places must produce byte-identical data files.
    """
    lines = [line for line in config_lines(config) if not line.startswith("out=")]
    blob = "\n".join(lines).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()[:16]
