"""Persistence for characterisation tables and hybrid look-up tables.

Two artefacts worth archiving per design/process:

- the OBD characterisation table ``alpha(T), b(T)`` a fab supplies
  (CSV, human-editable),
- the hybrid analyzer's per-block look-up tables (``.npz``), archived
  fully tabulated and restored without recomputation — the
  reliability-monitoring deployment path of Sec. IV-E.
"""

from __future__ import annotations

import io
from pathlib import Path

import numpy as np

from repro.core.ensemble import BlockReliability
from repro.core.hybrid import HybridAnalyzer
from repro.core.obd_model import TabulatedOBDModel
from repro.errors import ConfigurationError

#: CSV header of an OBD characterisation table.
_OBD_HEADER = "temperature_c,alpha_hours,b_per_nm"


def format_obd_table(model: TabulatedOBDModel) -> str:
    """Render a tabulated OBD model as CSV text."""
    lines = [_OBD_HEADER]
    for temp, log_alpha, b in zip(
        model.temperatures, model.log_alphas, model.bs, strict=True
    ):
        lines.append(f"{temp:.6g},{np.exp(log_alpha):.8e},{b:.8g}")
    return "\n".join(lines) + "\n"


def parse_obd_table(text: str) -> TabulatedOBDModel:
    """Parse a CSV OBD characterisation table."""
    reader = io.StringIO(text)
    header = reader.readline().strip()
    if header.replace(" ", "") != _OBD_HEADER:
        raise ConfigurationError(
            f"unexpected OBD table header {header!r}; expected {_OBD_HEADER!r}"
        )
    temps, alphas, bs = [], [], []
    for line_no, raw in enumerate(reader, start=2):
        line = raw.strip()
        if not line:
            continue
        parts = line.split(",")
        if len(parts) != 3:
            raise ConfigurationError(
                f"OBD table line {line_no}: expected 3 columns"
            )
        try:
            temps.append(float(parts[0]))
            alphas.append(float(parts[1]))
            bs.append(float(parts[2]))
        except ValueError as exc:
            raise ConfigurationError(
                f"OBD table line {line_no}: non-numeric value"
            ) from exc
    return TabulatedOBDModel(
        np.asarray(temps), np.asarray(alphas), np.asarray(bs)
    )


def save_obd_table(model: TabulatedOBDModel, path: str | Path) -> None:
    """Write an OBD characterisation table as CSV."""
    Path(path).write_text(format_obd_table(model))


def load_obd_table(path: str | Path) -> TabulatedOBDModel:
    """Read an OBD characterisation table from CSV."""
    return parse_obd_table(Path(path).read_text())


def save_hybrid_tables(hybrid: HybridAnalyzer, path: str | Path) -> None:
    """Persist a hybrid analyzer's look-up tables to an ``.npz`` archive.

    Stores the shared index axes, the full per-block log-failure tables
    (columns no query has needed yet are filled first), and the nominal
    per-block (alpha, b, area, name) needed to query with the design's
    default profile.
    """
    np.savez_compressed(
        Path(path),
        log_t_axis=hybrid.log_t_axis,
        b_axis=hybrid.b_axis,
        tables=hybrid.tables,
        alphas=np.array([block.alpha for block in hybrid.blocks]),
        bs=np.array([block.b for block in hybrid.blocks]),
        names=np.array([block.name for block in hybrid.blocks]),
    )


def load_hybrid_tables(
    path: str | Path, blocks: list[BlockReliability]
) -> HybridAnalyzer:
    """Restore a hybrid analyzer from an ``.npz`` archive.

    ``blocks`` must be the same design's block list (checked by name);
    every archived column is used as is and nothing is recomputed.
    """
    with np.load(Path(path), allow_pickle=False) as archive:
        names = [str(n) for n in archive["names"]]
        if names != [block.name for block in blocks]:
            raise ConfigurationError(
                "archived tables do not match the supplied block list"
            )
        return HybridAnalyzer.from_tables(
            blocks, archive["log_t_axis"], archive["b_axis"], archive["tables"]
        )
