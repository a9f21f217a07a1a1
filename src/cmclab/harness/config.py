"""Experiment configuration.

Flat key-value text files with dotted section keys, overridden by
environment variables (CMCLAB_ prefix, ``__`` standing for the dot) and then
by command-line flags.  Unknown keys and malformed values are hard errors
naming the offending field; silent typos must not poison long scans.
"""

from __future__ import annotations

import os
import re
from dataclasses import dataclass

from .. import metrics as mt
from ..errors import ConfigError
from ..solver import CmcOptions
from ..sphere import QuadratureGrid, working_grid

ENV_PREFIX = "CMCLAB_"


def _parse_int(key, raw):
    try:
        return int(raw)
    except ValueError:
        raise ConfigError(f"{key}: expected an integer, got {raw!r}") from None


def _parse_float(key, raw):
    try:
        return float(raw)
    except ValueError:
        raise ConfigError(f"{key}: expected a number, got {raw!r}") from None


def _parse_bool(key, raw):
    low = str(raw).strip().lower()
    if low in ("true", "1", "yes", "on"):
        return True
    if low in ("false", "0", "no", "off"):
        return False
    raise ConfigError(f"{key}: expected true/false, got {raw!r}")


def _parse_str(key, raw):
    return str(raw).strip()


def _parse_float_list(key, raw):
    if not str(raw).strip():
        return ()
    try:
        return tuple(float(tok) for tok in str(raw).split(","))
    except ValueError:
        raise ConfigError(f"{key}: expected comma-separated numbers, "
                          f"got {raw!r}") from None


def _parse_modes(key, raw):
    """Semicolon-separated l,m pairs: "2,0;3,0;4,2"."""
    out = []
    for part in str(raw).split(";"):
        part = part.strip()
        if not part:
            continue
        bits = part.split(",")
        if len(bits) != 2:
            raise ConfigError(f"{key}: each mode is 'l,m'; got {part!r}")
        try:
            l, m = int(bits[0]), int(bits[1])
        except ValueError:
            raise ConfigError(f"{key}: non-integer mode {part!r}") from None
        if l < 0 or abs(m) > l:
            raise ConfigError(f"{key}: invalid mode ({l}, {m})")
        out.append((l, m))
    if not out:
        raise ConfigError(f"{key}: empty mode list")
    return tuple(out)


def _parse_vectors(key, raw):
    """Semicolon-separated 3-vectors: "2,0,0;0,2.5,0"."""
    out = []
    for part in str(raw).split(";"):
        part = part.strip()
        if not part:
            continue
        bits = part.split(",")
        if len(bits) != 3:
            raise ConfigError(f"{key}: each entry is 'x,y,z'; got {part!r}")
        try:
            out.append(tuple(float(b) for b in bits))
        except ValueError:
            raise ConfigError(f"{key}: non-numeric vector {part!r}") from None
    if not out:
        raise ConfigError(f"{key}: empty vector list")
    return tuple(out)


_MONOMIAL = re.compile(r"^([xyz])(?:\^(\d+))?$")


def _parse_profile(key, raw):
    """Monomial like 'z^2', 'x*y', 'x^2*z', or '1' -> exponent triple."""
    expo = [0, 0, 0]
    raw = raw.strip()
    if raw != "1":
        for tok in raw.split("*"):
            match = _MONOMIAL.match(tok.strip())
            if match is None:
                raise ConfigError(f"{key}: bad profile factor {tok!r} "
                                  f"(use e.g. 'z^2', 'x*y', or '1')")
            axis = "xyz".index(match.group(1))
            expo[axis] += int(match.group(2) or 1)
    return ((1.0, tuple(expo)),)


def _parse_perturbation(key, raw):
    """Terms 'power,amplitude,i,j,profile' joined by ';' (1-based indices)."""
    terms = []
    for part in str(raw).split(";"):
        part = part.strip()
        if not part:
            continue
        bits = [b.strip() for b in part.split(",")]
        if len(bits) != 5:
            raise ConfigError(
                f"{key}: each term is 'power,amplitude,i,j,profile'; got {part!r}")
        power = _parse_int(key, bits[0])
        amplitude = _parse_float(key, bits[1])
        i, j = _parse_int(key, bits[2]), _parse_int(key, bits[3])
        if not (1 <= i <= 3 and 1 <= j <= 3):
            raise ConfigError(f"{key}: component indices are 1..3; got {part!r}")
        if power < 2:
            raise ConfigError(f"{key}: decay power must be >= 2; got {power}")
        terms.append(mt.PerturbationTerm(
            power=power, amplitude=amplitude, i=i - 1, j=j - 1,
            profile=_parse_profile(key, bits[4])))
    if not terms:
        raise ConfigError(f"{key}: empty perturbation")
    return tuple(terms)


# key -> (parser, default)
SCHEMA = {
    "metric.kind": (_parse_str, "schwarzschild"),
    "metric.mass": (_parse_float, 1.0),
    "metric.perturbation": (_parse_perturbation, None),
    "metric.cutoff": (_parse_float, 2.0),
    "grid.L": (_parse_int, 24),
    "seed": (_parse_int, 0),
    "workers": (_parse_int, 1),
    "solve.tolerance": (_parse_float, 1e-9),
    "solve.max_iterations": (_parse_int, 60),
    "foliate.H_start": (_parse_float, 0.3),
    "foliate.H_end": (_parse_float, 0.03),
    "foliate.n_leaves": (_parse_int, 8),
    "scan.lambdas": (_parse_float_list, (4.0, 8.0, 16.0, 32.0)),
    "scan.xis": (_parse_vectors, ((2.0, 0.0, 0.0),)),
    "scan.tau": (_parse_float, 2.5),
    "scan.delta": (_parse_float, 0.1),
    "scan.solve": (_parse_bool, False),
    "scan.shape_pull": (_parse_float, 0.0),
    "expand.modes": (_parse_modes, ((2, 0), (3, 0), (4, 2))),
    "expand.epsilons": (_parse_float_list,
                        (1e-3, 3.1e-3, 1e-2, 3.1e-2, 1e-1)),
}


def _read_config_file(path: str) -> dict:
    values = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            stripped = line.split("#", 1)[0].strip()
            if not stripped:
                continue
            if "=" not in stripped:
                raise ConfigError(
                    f"{path}:{lineno}: expected 'key = value', got {line.rstrip()!r}")
            key, raw = stripped.split("=", 1)
            values[key.strip()] = raw.strip()
    return values


def _env_overrides(environ) -> dict:
    # env names are upper case, so recover the canonical key case-insensitively
    canonical = {key.lower(): key for key in SCHEMA}
    values = {}
    for name, raw in environ.items():
        if not name.startswith(ENV_PREFIX):
            continue
        key = name[len(ENV_PREFIX):].lower().replace("__", ".")
        values[canonical.get(key, key)] = raw
    return values


@dataclass(frozen=True)
class ExperimentConfig:
    """Resolved configuration; precedence defaults < file < env < flags."""

    values: dict

    def __getitem__(self, key):
        return self.values[key]

    def model(self) -> mt.MetricModel:
        """The background metric.  Only the perturbed kind reads the
        perturbation keys, and the euclidean kind ignores metric.mass."""
        kind = self.values["metric.kind"]
        terms = self.values["metric.perturbation"]
        try:
            spec = (mt.PerturbationSpec(terms, self.values["metric.cutoff"])
                    if kind == mt.PERTURBED and terms is not None else None)
            mass = 0.0 if kind == mt.EUCLIDEAN else self.values["metric.mass"]
            return mt.MetricModel(kind, mass, spec)
        except ValueError as exc:
            # MetricModel and PerturbationSpec name the rejected field first
            raise ConfigError(f"metric.{exc}") from None

    def grid(self) -> QuadratureGrid:
        """The working grid of degree grid.L (``sphere.working_grid``)."""
        L = self.values["grid.L"]
        if L < 2:
            raise ConfigError(f"grid.L: need at least degree 2, got {L}")
        return working_grid(L)

    def solver_options(self) -> CmcOptions:
        return CmcOptions(
            tolerance=self.values["solve.tolerance"],
            max_iterations=self.values["solve.max_iterations"],
        )


def load_config(path: str | None = None, environ=None,
                flag_overrides: dict | None = None) -> ExperimentConfig:
    """Resolve the configuration with full precedence and validation."""
    environ = os.environ if environ is None else environ
    resolved = {key: default for key, (_, default) in SCHEMA.items()}
    raw_layers = []
    if path is not None:
        raw_layers.append(_read_config_file(path))
    raw_layers.append(_env_overrides(environ))
    for layer in raw_layers:
        for key, raw in layer.items():
            if key not in SCHEMA:
                raise ConfigError(f"unknown configuration key {key!r}")
            parser = SCHEMA[key][0]
            resolved[key] = parser(key, raw)
    for key, value in (flag_overrides or {}).items():
        if key not in SCHEMA:
            raise ConfigError(f"unknown configuration key {key!r}")
        resolved[key] = SCHEMA[key][0](key, value)
    config = ExperimentConfig(values=resolved)
    # eager validation so bad fields are named before any work starts
    config.model()
    config.grid()
    if resolved["workers"] < 1:
        raise ConfigError(f"workers: must be >= 1, got {resolved['workers']}")
    for xi in resolved["scan.xis"]:
        norm = (xi[0] ** 2 + xi[1] ** 2 + xi[2] ** 2) ** 0.5
        if norm <= 1.0:
            raise ConfigError(
                f"scan.xis: offsets must satisfy |xi| > 1 (outlying family); "
                f"got {xi} with |xi| = {norm:.4g}")
    return config
