"""Named channel environments for the IEEE 802.20 (MBWA) band plan.

Each preset carries the fitted intercept (with r in metres), decade
slope, shadowing deviation, close-in distance and the cell radius range
its propagation model was fitted for.  The assumed carrier frequency,
1.9 GHz, is metadata only: it enters no computation here.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, fields
from pathlib import Path

from .density import DensityModel
from .geometry import check_side
from .pathloss import PathLossParams


class UnknownPresetError(ValueError):
    pass


@dataclass(frozen=True)
class ChannelPreset:
    name: str
    alpha_prime_db: float
    beta_db_per_decade: float
    sigma_psi_db: float
    r0_m: float
    cell_radius_min_m: float
    cell_radius_max_m: float
    model_label: str

    def pathloss_params(self) -> PathLossParams:
        return PathLossParams.from_intercept(
            self.alpha_prime_db, self.beta_db_per_decade, self.r0_m, self.sigma_psi_db
        )

    def density_model(self, side: float) -> DensityModel:
        return DensityModel(side=side, pathloss=self.pathloss_params())


# name              alpha'  beta  sigma  r0   radius range [m]   model
_TABLE = [
    ("suburban-macro", 31.5, 35.0, 10.0, 35.0, 600.0, 3500.0, "COST-231 Hata-Model"),
    ("urban-macro", 34.5, 35.0, 10.0, 35.0, 600.0, 3500.0, "COST-231 Hata-Model"),
    ("urban-micro-nlos", 34.53, 38.0, 10.0, 20.0, 200.0, 300.0, "COST-231 Walfish-Ikegami"),
    ("urban-micro-los", 30.18, 26.0, 4.0, 20.0, 200.0, 300.0, "COST-231 Walfish-Ikegami"),
]

BUILTIN_PRESETS: dict[str, ChannelPreset] = {
    row[0]: ChannelPreset(*row) for row in _TABLE
}


def load_preset(name: str, path: str | Path | None = None) -> ChannelPreset:
    """Look up a preset by name, optionally from a JSON override file."""
    table = read_presets_file(path) if path is not None else BUILTIN_PRESETS
    try:
        return table[name]
    except KeyError:
        raise UnknownPresetError(
            f"unknown preset {name!r}; valid names: {', '.join(table)}"
        ) from None


def validate_cell_radius(preset: ChannelPreset, side: float) -> bool:
    """True iff the cell side lies in the preset's fitted radius range."""
    side = check_side(side)
    return preset.cell_radius_min_m <= side <= preset.cell_radius_max_m


def read_presets_file(path: str | Path) -> dict[str, ChannelPreset]:
    """Load presets from a JSON file (a list of preset objects).

    Raises ValueError, naming the file and the entry at fault, unless the
    file holds objects with distinct names and exactly the ChannelPreset
    fields: text for name and model_label, a finite int or float (not bool)
    for the others.  Each entry must also build its PathLossParams, and its
    radius bounds must pass the cell-side rule with min <= max.
    """
    try:
        data = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        raise ValueError(f"cannot read presets file {path}: {exc}") from None
    if not isinstance(data, list):
        raise ValueError(f"presets file {path}: expected a list of presets")
    keys = [f.name for f in fields(ChannelPreset)]
    presets = {}
    for i, entry in enumerate(data):
        where = f"presets file {path}, entry {i}"
        if not isinstance(entry, dict) or sorted(entry) != sorted(keys):
            raise ValueError(f"{where}: expected an object with exactly the keys {keys}")
        for key, value in entry.items():
            kind = str if key in ("name", "model_label") else (int, float)
            if isinstance(value, bool) or not isinstance(value, kind):
                raise ValueError(f"{where}: {key} has the wrong type ({value!r})")
            if kind is not str and not math.isfinite(value):
                raise ValueError(f"{where}: {key} is not finite ({value!r})")
        if entry["name"] in presets:
            raise ValueError(f"{where}: duplicate preset name {entry['name']!r}")
        preset = ChannelPreset(**entry)
        try:
            preset.pathloss_params()
        except ValueError as exc:
            raise ValueError(f"{where}: {exc}") from None
        for key in ("cell_radius_min_m", "cell_radius_max_m"):
            try:
                check_side(entry[key])
            except ValueError as exc:
                raise ValueError(f"{where}: {key}: {exc}") from None
        if not preset.cell_radius_min_m <= preset.cell_radius_max_m:
            raise ValueError(
                f"{where}: cell_radius_min_m {preset.cell_radius_min_m} exceeds "
                f"cell_radius_max_m {preset.cell_radius_max_m}"
            )
        presets[entry["name"]] = preset
    return presets
