"""Key-value run configuration.

Config documents are INI-style text: sections mirror the domain type
names, energies are in GHz, flux in flux-quantum units, transmissions are
a comma-separated list.
"""

from __future__ import annotations

import configparser
import math
from typing import Callable, Sequence, TypeVar

from .potentials import CircuitParams, FluxBias, NanowireChannels
from .spectrum import parse_transition_label

__all__ = [
    "ConfigError",
    "RunConfig",
    "load_config",
    "parse_float_list",
    "parse_counts",
    "parse_pairs",
    "parse_labels",
    "circuit_from_config",
    "channels_from_config",
    "flux_from_config",
    "read_gate_channels",
]


#: largest accepted energy or linewidth (GHz); devices sit below 1e3, and
#: far larger values overflow the charge-basis solve and the line shapes
MAX_ENERGY_GHZ = 1e6

#: largest accepted |flux| (flux quanta); a flux of 1e3 still wraps to a phase
#: good to about 1e-12 rad, while far larger ones keep no digits of it
MAX_FLUX_PHI0 = 1e3


_T = TypeVar("_T")


class ConfigError(Exception):
    """Bad or missing configuration value; message names the field."""


class RunConfig:
    """Typed access to one parsed configuration document."""

    def __init__(self, parser: configparser.ConfigParser, path: str):
        self._parser = parser
        self.path = path

    def has_section(self, section: str) -> bool:
        return self._parser.has_section(section)

    def sections(self) -> list[str]:
        return self._parser.sections()

    def raw(self, section: str, key: str) -> str | None:
        if not self._parser.has_option(section, key):
            return None
        return self._parser.get(section, key)

    def items(self, section: str) -> list[tuple[str, str]]:
        if not self._parser.has_section(section):
            raise ConfigError(f"missing section [{section}] in {self.path}")
        return list(self._parser.items(section))

    def _get(self, section: str, key: str, default: _T | None, parse: Callable[[str], _T]) -> _T:
        """``parse`` of the field's text, or ``default`` when the field is absent."""
        value = self.raw(section, key)
        if value is None:
            if default is None:
                raise ConfigError(f"missing field {section}.{key} in {self.path}")
            return default
        return parse(value)

    def get_str(self, section: str, key: str, default: str | None = None) -> str:
        return self._get(section, key, default, str.strip)

    def get_float(self, section: str, key: str, default: float | None = None) -> float:
        def parse(value: str) -> float:
            try:
                number = float(value)
            except ValueError as exc:
                raise ConfigError(f"field {section}.{key}: not a number: {value!r}") from exc
            if not math.isfinite(number):
                raise ConfigError(f"field {section}.{key}: not a finite number: {value!r}")
            return number

        return self._get(section, key, default, parse)

    def get_energy(self, section: str, key: str, default: float | None = None) -> float:
        """A float in (0, MAX_ENERGY_GHZ]: an energy or linewidth in GHz."""
        value = self.get_float(section, key, default)
        if not 0.0 < value <= MAX_ENERGY_GHZ:
            raise ConfigError(
                f"field {section}.{key}: must be in (0, {MAX_ENERGY_GHZ:g}] GHz, got {value!r}"
            )
        return value

    def get_flux(self, section: str, key: str, default: float | None = None) -> float:
        """A float in [-MAX_FLUX_PHI0, MAX_FLUX_PHI0]: a flux in flux quanta."""
        value = self.get_float(section, key, default)
        if abs(value) > MAX_FLUX_PHI0:
            raise ConfigError(f"field {section}.{key}: |flux| must be <= {MAX_FLUX_PHI0:g} Phi0, got {value!r}")
        return value

    def get_int(self, section: str, key: str, default: int | None = None) -> int:
        def parse(value: str) -> int:
            try:
                return int(value)
            except ValueError as exc:
                raise ConfigError(f"field {section}.{key}: not an integer: {value!r}") from exc

        return self._get(section, key, default, parse)

    def get_bool(self, section: str, key: str, default: bool | None = None) -> bool:
        def parse(value: str) -> bool:
            lowered = value.strip().lower()
            if lowered in ("true", "yes", "1", "on"):
                return True
            if lowered in ("false", "no", "0", "off"):
                return False
            raise ConfigError(f"field {section}.{key}: not a boolean: {value!r}")

        return self._get(section, key, default, parse)


def load_config(path: str) -> RunConfig:
    """Parse a UTF-8 config document; values are read literally (``%`` is no escape)."""
    parser = configparser.ConfigParser(interpolation=None)
    try:
        with open(path, "r", encoding="utf-8") as fh:
            parser.read_file(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ConfigError(f"config {path} is not UTF-8 text: {exc}") from exc
    except configparser.Error as exc:
        raise ConfigError(f"malformed config {path}: {exc}") from exc
    return RunConfig(parser, path)


def parse_float_list(text: str, *, field: str = "value") -> list[float]:
    text = text.strip()
    if not text:
        return []
    try:
        return [float(cell) for cell in text.split(",")]
    except ValueError as exc:
        raise ConfigError(f"{field}: not a comma-separated number list: {text!r}") from exc


def parse_counts(text: str, *, field: str = "channels") -> list[int]:
    """Channel counts as '3', '2,3,4', or the range form '2..5'; none may be given twice."""
    text = text.strip()
    try:
        if ".." in text:
            lo_text, hi_text = text.split("..", 1)
            lo, hi = int(lo_text), int(hi_text)
            if hi < lo:
                raise ValueError("empty range")
            counts = list(range(lo, hi + 1))
        else:
            cells = [cell.strip() for cell in text.split(",")]
            counts = [int(cell) for cell in cells]
            _reject_repeats(cells, counts, field)
    except ValueError as exc:
        raise ConfigError(f"{field}: expected counts like '3', '2,3' or '2..5': {text!r}") from exc
    if min(counts) < 1:
        raise ConfigError(f"{field}: channel counts must be >= 1, got {text!r}")
    return counts


def parse_pairs(text: str, *, field: str = "matrix_elements") -> list[tuple[int, int]]:
    """Level pairs as '0-1,1-2'; levels count from 0."""
    cells = [cell.strip() for cell in text.split(",") if cell.strip()]
    pairs = []
    for cell in cells:
        try:
            i_text, j_text = cell.split("-", 1)
            pairs.append((int(i_text), int(j_text)))
        except ValueError as exc:
            raise ConfigError(f"{field}: expected pairs like '0-1,1-2': {text!r}") from exc
        if min(pairs[-1]) < 0:
            raise ConfigError(f"{field}: levels must be >= 0, got {cell!r}")
    _reject_repeats(cells, pairs, field)
    return pairs


def parse_labels(text: str, *, field: str = "labels") -> tuple[str, ...]:
    labels = tuple(cell.strip() for cell in text.split(",") if cell.strip())
    if not labels:
        raise ConfigError(f"{field}: no transition labels given")
    try:
        transitions = [parse_transition_label(label) for label in labels]
    except ValueError as exc:
        raise ConfigError(f"{field}: {exc}") from exc
    _reject_repeats(labels, transitions, field)
    return labels


def _reject_repeats(cells: Sequence[str], meanings: Sequence[object], field: str) -> None:
    """Raise ``ConfigError`` naming ``field`` when two cells mean one thing: it would be written twice."""
    first: dict[object, str] = {}
    for cell, meaning in zip(cells, meanings):
        if meaning in first:
            raise ConfigError(f"{field}: {cell!r} repeats {first[meaning]!r}")
        first[meaning] = cell


# ---------------------------------------------------------------------------
# domain objects from documents


def circuit_from_config(cfg: RunConfig, section: str = "circuit") -> CircuitParams:
    return CircuitParams(
        **{name: cfg.get_energy(section, name) for name in ("ej1", "ej2", "ecj", "ec", "gap")}
    )


def channels_from_config(cfg: RunConfig) -> NanowireChannels:
    if not cfg.has_section("channels"):
        return NanowireChannels(())
    text = cfg.get_str("channels", "transmissions", default="")
    return _parse_channels(text, "channels.transmissions")


def flux_from_config(cfg: RunConfig) -> FluxBias:
    return FluxBias.from_phi0(cfg.get_flux("flux", "phi_e", default=0.0))


def read_gate_channels(cfg: RunConfig) -> list[tuple[float, NanowireChannels]]:
    """Per-gate channel lists from a [gates] section or gate:* sections.

    The [gates] form maps each gate tag to a transmission list; fit
    result documents instead carry one [gate:<tag>] section per gate
    with a ``transmissions`` field. Both are accepted, but each gate
    voltage only once across them: tags '1.0' and '1.00' are one gate.
    """
    entries: list[tuple[str, str, str, str]] = []  # (tag, where, transmissions, field)
    if cfg.has_section("gates"):
        entries += [(key, "section [gates]", value, f"gates.{key}") for key, value in cfg.items("gates")]
    for name in cfg.sections():
        if name.startswith("gate:"):
            text = cfg.get_str(name, "transmissions", default="")
            entries.append((name[5:], f"section [{name}]", text, f"{name}.transmissions"))
    first: dict[float, str] = {}
    gates: list[tuple[float, NanowireChannels]] = []
    for tag, where, text, field in entries:
        gate = _gate_tag(tag, where)
        spelling = f"gate tag {tag!r} in {where}"
        if gate in first:
            raise ConfigError(f"{spelling} repeats the gate of {first[gate]}")
        first[gate] = spelling
        gates.append((gate, _parse_channels(text, field)))
    gates.sort(key=lambda item: item[0])
    return gates


def _gate_tag(text: str, where: str) -> float:
    try:
        gate = float(text)
    except ValueError:
        gate = math.nan
    if not math.isfinite(gate):
        raise ConfigError(f"{where}: gate tag {text!r} is not a finite number")
    return gate


def _parse_channels(text: str, field: str) -> NanowireChannels:
    try:
        return NanowireChannels(tuple(parse_float_list(text, field=field)))
    except ValueError as exc:
        raise ConfigError(f"field {field}: {exc}") from exc
