"""Run configuration files.

INI syntax via configparser, one key per simulation field, grouped in the
sections [model], [time], [ensemble], [init], [gamma] and optional
[outputs].  See the README for the documented schema.  Parsing errors and
invariant violations name the offending section and key; so does a key or
section that the schema does not know.
"""

from __future__ import annotations

import configparser
import dataclasses
import warnings
from dataclasses import dataclass

from .exponents import admissible_existence
from .integrator import ConfigError, GaussianInit, SimConfig, SingleModeInit
from .noise import ExplicitSpectrum, PowerLawSpectrum

__all__ = ["parse_config", "parse_config_string", "OutputOptions", "config_to_ini"]


@dataclass(frozen=True)
class OutputOptions:
    snapshots: bool = False


def _as_bool(raw: str) -> bool:
    low = raw.strip().lower()
    if low in ("1", "true", "yes", "on"):
        return True
    if low in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {raw!r}")


# (parse, format) between INI text and a value, by the field's annotation
_TYPES = {
    "int": (int, str),
    "float": (float, repr),
    "str": (str, str),
    "bool": (_as_bool, lambda v: str(v).lower()),
    "tuple": (lambda raw: tuple(int(tok) for tok in raw.split()),
              lambda v: " ".join(str(c) for c in v)),
}

# The sections of a config file in file order.  Each key is named after
# the field it sets.  [model], [time] and [ensemble] list their SimConfig
# fields; [init] and [gamma] set the SimConfig field of their own name and
# map their `kind` key to the descriptor class whose fields follow it.  The
# optional [outputs] section holds OutputOptions' fields.  A key left out
# of the file takes the field's own default.
_SCHEMA = (
    ("model", ("d", "p", "nu", "n")),
    ("time", ("dt", "T")),
    ("ensemble", ("n_paths", "seed", "stepper", "record_every", "norm_ceiling")),
    ("init", {"single_mode": SingleModeInit, "gaussian": GaussianInit}),
    ("gamma", {"power": PowerLawSpectrum, "explicit": ExplicitSpectrum}),
)


def _fields(cls, names=None):
    return [f for f in dataclasses.fields(cls) if names is None or f.name in names]


def _value(keys, section: str, key: str, parse):
    if key not in keys:
        raise ConfigError(f"[{section}] {key}: key missing")
    raw = keys[key]
    try:
        return parse(raw)
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"[{section}] {key}: cannot parse {raw!r} ({exc})")


def _read(keys, section: str, cls, names=None) -> dict:
    """Keyword arguments of cls from the keys of one section."""
    return {f.name: _value(keys, section, f.name, _TYPES[f.type][0])
            for f in _fields(cls, names)
            if f.name in keys or f.default is dataclasses.MISSING}


def _known(parser, keys, section: str, names) -> None:
    """Fail on a key of the section that is not in names.  configparser
    stores keys through optionxform (lower case by default), so the names
    are compared in the same form.  It also copies the keys of a [DEFAULT]
    section into every section; that section fails on its own."""
    allowed = {parser.optionxform(name) for name in names}
    for key in keys:
        if key not in allowed and key not in parser.defaults():
            raise ConfigError(f"[{section}] {key}: unknown key")


def _explicit_entries(raw: str, d: int) -> ExplicitSpectrum:
    items = []
    for lineno, line in enumerate(raw.strip().splitlines()):
        toks = line.split()
        if not toks:
            continue
        if len(toks) != d + 2:
            raise ConfigError(
                f"[gamma] entries line {lineno + 1}: need d z-components, "
                f"j and a value ({d + 2} tokens), got {len(toks)}")
        try:
            z = tuple(int(t) for t in toks[:d])
            j = int(toks[d])
            g = float(toks[d + 1])
        except ValueError as exc:
            raise ConfigError(f"[gamma] entries line {lineno + 1}: {exc}")
        items.append((z, j, g))
    return ExplicitSpectrum.from_items(items)


def parse_config_string(text: str):
    """Parse INI text into (SimConfig, OutputOptions).

    Values are read verbatim: `%` starts no interpolation, so a value
    holding one fails to parse with an error that names its key.  A key
    or section that the schema does not name fails too.
    """
    parser = configparser.ConfigParser(interpolation=None)
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"config syntax: {exc}")
    values = {}
    for section, spec in _SCHEMA:
        if section not in parser:
            raise ConfigError(f"[{section}]: section missing")
        keys = parser[section]
        if isinstance(spec, tuple):
            values.update(_read(keys, section, SimConfig, spec))
            _known(parser, keys, section, spec)
            continue
        kind = _value(keys, section, "kind", str)
        if kind not in spec:
            raise ConfigError(f"[{section}] kind: unknown kind {kind!r}")
        if spec[kind] is ExplicitSpectrum:
            values[section] = _explicit_entries(keys.get("entries", ""), values["d"])
        else:
            values[section] = spec[kind](**_read(keys, section, spec[kind]))
        _known(parser, keys, section, ["kind"] + [f.name for f in _fields(spec[kind])])
    known = [name for name, _ in _SCHEMA] + ["outputs"]
    default = [parser.default_section] if parser.defaults() else []
    for section in default + parser.sections():
        if section not in known:
            raise ConfigError(f"[{section}]: unknown section")
    config = SimConfig(**values)
    if not admissible_existence(config.p, config.d):
        warnings.warn(
            f"(p={config.p}, d={config.d}) lies outside the known existence "
            "range; the run proceeds but is not covered by the well-posedness "
            "theory", stacklevel=2)
    keys = parser["outputs"] if parser.has_section("outputs") else {}
    outputs = OutputOptions(**_read(keys, "outputs", OutputOptions))
    _known(parser, keys, "outputs", [f.name for f in _fields(OutputOptions)])
    return config, outputs


def parse_config(path) -> tuple:
    """Parse a config file into (SimConfig, OutputOptions)."""
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"config file: {exc}")
    return parse_config_string(text)


def _key_lines(obj, names=None) -> list:
    return [f"{f.name} = {_TYPES[f.type][1](getattr(obj, f.name))}"
            for f in _fields(type(obj), names)]


def config_to_ini(config: SimConfig, outputs: OutputOptions = OutputOptions()) -> str:
    """Serialize a config back to INI text (manifest snapshot)."""
    lines = []
    for section, spec in _SCHEMA:
        lines.append(f"[{section}]")
        if isinstance(spec, tuple):
            lines += _key_lines(config, spec)
        else:
            obj = getattr(config, section)
            lines += [f"kind = {k}" for k, cls in spec.items() if isinstance(obj, cls)]
            if isinstance(obj, ExplicitSpectrum):
                lines.append("entries =")
                lines += ["    " + " ".join(str(c) for c in z) + f" {j} {g!r}"
                          for z, j, g in obj.entries]
            else:
                lines += _key_lines(obj)
        lines.append("")
    lines += ["[outputs]", *_key_lines(outputs), ""]
    return "\n".join(lines)
