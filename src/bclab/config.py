"""Flat key=value experiment configuration with lossless round-tripping.

The format is line based: 'key = value', '#' comments, repeated keys for
lists, no nesting.  Serialization is canonical (fixed key order, full float
repr), so a config hashes identically no matter how the source file was
formatted.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, replace

from .characters import DirichletChar, unit_group
from .fields import AbelianField, make_field
from .automorphic import GalHeckeChar, base_change


class ConfigError(ValueError):
    pass


def parse_int(text: str) -> int:
    """An integer written plainly ('10000000') or as a float ('1e7').

    Raises ValueError for anything that is not a finite integral value.
    """
    try:
        return int(text)
    except ValueError:
        pass
    try:
        value = float(text)
    except ValueError:
        raise ValueError(f"not a number: {text!r}") from None
    if not math.isfinite(value) or not value.is_integer():
        raise ValueError(f"not a finite integer: {text!r}")
    return int(value)


def parse_finite_float(text: str) -> float:
    """A float other than NaN or an infinity ('1e400' overflows to one)."""
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"not a finite float: {text!r}")
    return value


_TYPE_NAMES = {parse_int: "int", parse_finite_float: "finite float"}

_SCHEMA = {
    # key: (type, repeated)
    "e_modulus": (int, False),
    "e_gen": (int, True),
    "f_modulus": (int, False),
    "f_gen": (int, True),
    "pi_modulus": (int, False),
    "pi_exp": (int, True),
    "pi_tau": (parse_finite_float, False),
    "pi_prime_modulus": (int, False),
    "pi_prime_exp": (int, True),
    "pi_prime_tau": (parse_finite_float, False),
    "limit": (parse_int, False),
    "checkpoint": (parse_int, True),
    "out": (str, False),
    "csv": (str, False),
}

_SERIAL_ORDER = [
    "e_modulus", "e_gen", "pi_modulus", "pi_exp", "pi_tau",
    "f_modulus", "f_gen", "pi_prime_modulus", "pi_prime_exp", "pi_prime_tau",
    "limit", "checkpoint", "out", "csv",
]


@dataclass(frozen=True)
class ExperimentConfig:
    e_modulus: int | None = None
    e_gens: tuple[int, ...] = ()
    pi_modulus: int | None = None
    pi_exps: tuple[int, ...] | None = None
    pi_tau: float = 0.0
    f_modulus: int | None = None
    f_gens: tuple[int, ...] = ()
    pi_prime_modulus: int | None = None
    pi_prime_exps: tuple[int, ...] | None = None
    pi_prime_tau: float = 0.0
    limit: int = 1_000_000
    checkpoints: tuple[int, ...] | None = None
    out: str | None = None
    csv: str | None = None

    # -- construction of the arithmetic objects -----------------------------
    def field_e(self) -> AbelianField:
        if self.e_modulus is None:
            raise ConfigError("config does not define a field E (e_modulus)")
        return make_field(self.e_modulus, self.e_gens)

    def field_f(self) -> AbelianField:
        if self.f_modulus is None:
            raise ConfigError("config does not define a field F (f_modulus)")
        return make_field(self.f_modulus, self.f_gens)

    def _char(self, which: str, modulus_key, exps, field_modulus
              ) -> DirichletChar:
        if modulus_key is not None and modulus_key != field_modulus:
            raise ConfigError(
                f"inconsistent moduli: {which}_modulus = {modulus_key} but "
                f"its field is presented mod {field_modulus}"
            )
        group = unit_group(field_modulus)
        vec = exps if exps is not None else ()
        if len(vec) != len(group.generators):
            raise ConfigError(
                f"{which}_exp needs {len(group.generators)} entries for "
                f"modulus {field_modulus}, got {len(vec)}"
            )
        return DirichletChar(group, vec)

    def pi(self) -> GalHeckeChar:
        e = self.field_e()
        chi = self._char("pi", self.pi_modulus, self.pi_exps, e.modulus)
        return base_change(chi, e, tau=self.pi_tau)

    def pi_prime(self) -> GalHeckeChar:
        f = self.field_f()
        chi = self._char("pi_prime", self.pi_prime_modulus,
                         self.pi_prime_exps, f.modulus)
        return base_change(chi, f, tau=self.pi_prime_tau)


def parse_config(text: str) -> ExperimentConfig:
    single: dict[str, object] = {}
    lists: dict[str, list] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got "
                              f"{raw.strip()!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in _SCHEMA:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        typ, repeated = _SCHEMA[key]
        try:
            parsed = typ(value)
        except ValueError:
            name = _TYPE_NAMES.get(typ, typ.__name__)
            raise ConfigError(
                f"line {lineno}: expected {name} for {key}, got {value!r}"
            ) from None
        if repeated:
            lists.setdefault(key, []).append(parsed)
        else:
            if key in single:
                raise ConfigError(f"line {lineno}: duplicate key {key!r}")
            single[key] = parsed

    def seen_list(key):
        return tuple(lists[key]) if key in lists else None

    cfg = ExperimentConfig(
        e_modulus=single.get("e_modulus"),
        e_gens=seen_list("e_gen") or (),
        pi_modulus=single.get("pi_modulus"),
        pi_exps=seen_list("pi_exp"),
        pi_tau=single.get("pi_tau", 0.0),
        f_modulus=single.get("f_modulus"),
        f_gens=seen_list("f_gen") or (),
        pi_prime_modulus=single.get("pi_prime_modulus"),
        pi_prime_exps=seen_list("pi_prime_exp"),
        pi_prime_tau=single.get("pi_prime_tau", 0.0),
        limit=single.get("limit", 1_000_000),
        checkpoints=seen_list("checkpoint"),
        out=single.get("out"),
        csv=single.get("csv"),
    )
    return cfg


def serialize_config(cfg: ExperimentConfig) -> str:
    pairs: list[tuple[str, object]] = []

    def put(key, value):
        if value is None:
            return
        pairs.append((key, value))

    put("e_modulus", cfg.e_modulus)
    for g in cfg.e_gens:
        put("e_gen", g)
    put("pi_modulus", cfg.pi_modulus)
    for e in cfg.pi_exps or ():
        put("pi_exp", e)
    if cfg.pi_exps is not None or cfg.pi_tau:
        put("pi_tau", repr(cfg.pi_tau))
    put("f_modulus", cfg.f_modulus)
    for g in cfg.f_gens:
        put("f_gen", g)
    put("pi_prime_modulus", cfg.pi_prime_modulus)
    for e in cfg.pi_prime_exps or ():
        put("pi_prime_exp", e)
    if cfg.pi_prime_exps is not None or cfg.pi_prime_tau:
        put("pi_prime_tau", repr(cfg.pi_prime_tau))
    put("limit", cfg.limit)
    for c in cfg.checkpoints or ():
        put("checkpoint", c)
    put("out", cfg.out)
    put("csv", cfg.csv)
    order = {k: i for i, k in enumerate(_SERIAL_ORDER)}
    pairs.sort(key=lambda kv: order[kv[0]])
    return "".join(f"{k} = {v}\n" for k, v in pairs)


def config_hash(cfg: ExperimentConfig) -> str:
    return hashlib.sha256(serialize_config(cfg).encode()).hexdigest()


def with_overrides(cfg: ExperimentConfig, **kw) -> ExperimentConfig:
    kw = {k: v for k, v in kw.items() if v is not None}
    return replace(cfg, **kw)
