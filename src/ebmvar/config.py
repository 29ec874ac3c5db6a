"""Experiment configuration: one INI-style file with per-module sections.

Every referenced section is validated against its schema before any
computation; unknown sections or keys are a hard error so that typos cannot
silently fall back to defaults.
"""

from __future__ import annotations

import configparser
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError
from .model_core import EbmParams
from .sde_engine import DRIFT_FORMS, SCHEMES, SimConfig
from .spatial_model import (
    BoundaryTrace,
    Grid2D,
    build_noise_covariance,
)

_FLOAT = "float"
_INT = "int"
_STR = "str"

SCHEMAS = {
    "model": {
        "beta_min": (_FLOAT, True), "beta_max": (_FLOAT, True),
        "T_l": (_FLOAT, True), "T_u": (_FLOAT, True),
        "r0": (_FLOAT, True), "r1": (_FLOAT, True),
        "Q": (_FLOAT, True), "lambda": (_FLOAT, True), "tau": (_FLOAT, True),
    },
    "sim": {
        "dt": (_FLOAT, True), "n_steps": (_INT, True),
        "n_paths": (_INT, True), "seed": (_INT, False),
        "scheme": (_STR, False), "drift_form": (_STR, False),
    },
    "grid": {
        "Lx": (_FLOAT, True), "Ly": (_FLOAT, True),
        "Nx": (_INT, True), "Ny": (_INT, True),
    },
    "noise": {
        "kernel": (_STR, True), "variance": (_FLOAT, False),
        "length": (_FLOAT, False),
    },
    "boundary": {
        "theta": (_FLOAT, False),
        "left": (_FLOAT, False), "right": (_FLOAT, False),
        "bottom": (_FLOAT, False), "top": (_FLOAT, False),
    },
    "sweep": {
        "lambda_min": (_FLOAT, True), "lambda_max": (_FLOAT, True),
        "n_points": (_INT, True),
    },
}


@dataclass
class ExperimentConfig:
    """A parsed config file: section name -> {key: validated value}."""

    sections: dict = field(default_factory=dict)

    def section(self, name: str) -> dict:
        if name not in self.sections:
            raise ConfigError(f"missing required config section [{name}]")
        return self.sections[name]


def _parse_value(section, key, kind, raw):
    try:
        value = {_FLOAT: float, _INT: int, _STR: str}[kind](raw)
    except ValueError as exc:
        raise ConfigError(f"{section}.{key}: cannot parse {raw!r} as {kind}") from exc
    if kind == _FLOAT and not np.isfinite(value):
        raise ConfigError(f"{section}.{key}: {raw!r} is not a finite number")
    return value


def load_config(path) -> ExperimentConfig:
    parser = configparser.ConfigParser(strict=True, interpolation=None)
    try:
        read = parser.read(path)
    except (configparser.Error, UnicodeDecodeError) as exc:
        raise ConfigError(f"malformed config file {path!r}: {exc}") from exc
    if not read:
        raise ConfigError(f"cannot read config file {path!r}")
    sections = {}
    for name in parser.sections():
        if name not in SCHEMAS:
            raise ConfigError(f"unknown config section [{name}]")
        schema = SCHEMAS[name]
        parsed = {}
        for key, raw in parser[name].items():
            # configparser lowercases keys by default; schemas are mixed-case.
            match = next((k for k in schema if k.lower() == key), None)
            if match is None:
                raise ConfigError(f"unknown key {name}.{key}")
            parsed[match] = _parse_value(name, match, schema[match][0], raw)
        for key, (kind, required) in schema.items():
            if required and key not in parsed:
                raise ConfigError(f"missing required key {name}.{key}")
        sections[name] = parsed
    return ExperimentConfig(sections=sections)


def model_params(cfg: ExperimentConfig) -> EbmParams:
    s = cfg.section("model")
    try:
        return EbmParams(
            beta_min=s["beta_min"], beta_max=s["beta_max"],
            T_l=s["T_l"], T_u=s["T_u"], r0=s["r0"], r1=s["r1"],
            Q=s["Q"], lam=s["lambda"], tau=s["tau"],
        )
    except ValueError as exc:
        raise ConfigError(f"model: {exc}") from exc


def sim_config(cfg: ExperimentConfig, seed_override=None) -> SimConfig:
    s = cfg.section("sim")
    try:
        return SimConfig(
            dt=s["dt"], n_steps=s["n_steps"], n_paths=s["n_paths"],
            seed=seed_override if seed_override is not None else s.get("seed", 0),
            scheme=s.get("scheme", SCHEMES[0]),
            drift_form=s.get("drift_form", DRIFT_FORMS[0]),
        )
    except ValueError as exc:
        raise ConfigError(f"sim: {exc}") from exc


def grid_config(cfg: ExperimentConfig) -> Grid2D:
    s = cfg.section("grid")
    try:
        return Grid2D(Lx=s["Lx"], Ly=s["Ly"], Nx=s["Nx"], Ny=s["Ny"])
    except ValueError as exc:
        raise ConfigError(f"grid: {exc}") from exc


def boundary_config(cfg: ExperimentConfig) -> BoundaryTrace:
    s = cfg.section("boundary")
    if "theta" in s:
        extra = set(s) - {"theta"}
        if extra:
            raise ConfigError(
                f"boundary: give either theta or per-edge values, not both ({sorted(extra)})"
            )
        return BoundaryTrace.constant(s["theta"])
    missing = {"left", "right", "bottom", "top"} - set(s)
    if missing:
        raise ConfigError(f"boundary: missing edges {sorted(missing)}")
    return BoundaryTrace(left=s["left"], right=s["right"],
                         bottom=s["bottom"], top=s["top"])


def noise_covariance(cfg: ExperimentConfig, grid: Grid2D) -> np.ndarray:
    s = cfg.section("noise")
    try:
        if s["kernel"] == "identity" and "length" in s:
            raise ValueError("the identity kernel reads no length")
        return build_noise_covariance(grid, kernel=s["kernel"],
                                      variance=s.get("variance", 1.0),
                                      length=s.get("length"))
    except ValueError as exc:
        raise ConfigError(f"noise: {exc}") from exc
    except MemoryError as exc:  # a kernel matrix too large to hold
        raise ConfigError(f"noise: kernel = {s['kernel']} on grid.Nx = "
                          f"{grid.Nx}, grid.Ny = {grid.Ny}: {exc}") from exc


def sweep_grid(cfg: ExperimentConfig) -> np.ndarray:
    s = cfg.section("sweep")
    if s["n_points"] < 1:
        raise ConfigError("sweep.n_points must be >= 1")
    if s["lambda_min"] > s["lambda_max"]:
        raise ConfigError("need sweep.lambda_min <= sweep.lambda_max, got "
                          f"{s['lambda_min']!r} and {s['lambda_max']!r}")
    try:
        return np.linspace(s["lambda_min"], s["lambda_max"], s["n_points"])
    except (ValueError, MemoryError) as exc:  # more points than numpy can hold
        raise ConfigError(f"sweep.n_points = {s['n_points']}: {exc}") from exc
