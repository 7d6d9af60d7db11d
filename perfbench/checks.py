"""Output checks for the benchmark: digests, the paper's shape claims, and
the work a run did.

Everything here reads the JSON files a ``repro run ... --out DIR``
writes (``{"metadata": {...}, "series": {label: {"x": [...], "y":
[...]}}}``); nothing imports ``repro``. The claims restate, in this
file, what the paper's figures show; a run whose outputs break one
counts as failed.
"""

from __future__ import annotations

import hashlib
import json
import math
import statistics
from pathlib import Path


def digest(out_dir: Path) -> str:
    """SHA-256 over every ``*.json`` output, by file name then bytes."""
    sha = hashlib.sha256()
    for path in sorted(Path(out_dir).glob("*.json")):
        sha.update(path.name.encode() + b"\0")
        sha.update(path.read_bytes())
        sha.update(b"\0")
    return sha.hexdigest()


def load_outputs(out_dir: Path) -> dict[str, dict]:
    """``{result id: parsed JSON}`` for every ``*.json`` output."""
    return {
        path.stem: json.loads(path.read_text())
        for path in sorted(Path(out_dir).glob("*.json"))
    }


def _ys(result: dict, label: str) -> list[float]:
    return [y for y in result["series"][label]["y"] if math.isfinite(y)]


def _final(result: dict, label: str) -> float:
    ys = _ys(result, label)
    return ys[-1] if ys else math.nan


def _first(result: dict, label: str) -> float:
    ys = _ys(result, label)
    return ys[0] if ys else math.nan


def _gmean(result: dict, label: str) -> float:
    logs = [math.log(y) for y in _ys(result, label) if y > 0]
    return math.exp(sum(logs) / len(logs)) if logs else math.nan


def _largest_size(result: dict, label: str) -> int:
    return int(result["series"][label]["x"][-1])


# ----------------------------------------------------------------------
# Shape claims: each returns the list of broken claims (empty = pass)
# ----------------------------------------------------------------------
def fig4_claims(outputs: dict[str, dict]) -> list[str]:
    """Paper Sec. 6.3 on the Table 1 graphs with community categories."""
    broken = []
    datasets = sorted(key[len("fig4_"):-len("_sizes")] for key in outputs if key.endswith("_sizes"))
    if len(datasets) != 4:
        broken.append(f"fig4: expected 4 datasets, got {datasets}")
    rw_gaps = []
    for name in datasets:
        sizes, weights = outputs[f"fig4_{name}_sizes"], outputs[f"fig4_{name}_weights"]
        for label in sizes["series"]:
            if not math.isfinite(_final(sizes, label)):
                broken.append(f"fig4 {name}: size curve {label} has no finite value")
        # Size estimation converges under UIS.
        if not _final(sizes, "UIS/induced") < _first(sizes, "UIS/induced"):
            broken.append(f"fig4 {name}: UIS/induced size NRMSE does not fall")
        # Weight estimation: star beats induced for every design.
        for design in ("UIS", "RW", "S-WRW"):
            star = _final(weights, f"{design}/star")
            induced = _final(weights, f"{design}/induced")
            if not star < induced:
                broken.append(f"fig4 {name}: {design} star {star:.3g} >= induced {induced:.3g}")
        rw_gaps.append(_final(weights, "RW/star") / _final(weights, "RW/induced"))
    # The paper's 5-10x sample-efficiency gap shows as a wide NRMSE gap
    # for the random walk on a typical dataset (one skewed stand-in may
    # narrow it, so the median across datasets is what is claimed).
    if rw_gaps and not statistics.median(rw_gaps) < 0.6:
        broken.append(f"fig4: median RW star/induced weight NRMSE {statistics.median(rw_gaps):.2f} >= 0.6")
    return broken


def fig3a_claims(outputs: dict[str, dict]) -> list[str]:
    """Paper Sec. 6.2, Fig. 3(a): planted model under UIS."""
    broken = []
    panel = outputs.get("fig3a")
    if panel is None:
        return ["fig3a: output missing"]
    # Every size curve converges.
    for label in panel["series"]:
        if not _final(panel, label) < _first(panel, label):
            broken.append(f"fig3a: {label} NRMSE does not fall along |S|")
    # Density helps the star estimator: the k=49 curve sits below k=5.
    # Compared over the whole curve (geometric means): single points are
    # noise once both errors reach the 1e-3 range.
    if not _gmean(panel, "k=49/star") < _gmean(panel, "k=5/star"):
        broken.append("fig3a: k=49 star curve does not sit below k=5")
    return broken


def fig6_claims(outputs: dict[str, dict]) -> list[str]:
    """Paper Sec. 7.2, Fig. 6: estimation error on the Facebook crawls."""
    broken = []
    for panel in ("fig6a", "fig6b", "fig6c", "fig6d"):
        if panel not in outputs:
            broken.append(f"fig6: {panel} missing")
    if broken:
        return broken
    # Star dramatically beats induced on weights, every crawl, both years.
    for panel in ("fig6c", "fig6d"):
        result = outputs[panel]
        for crawl in sorted({label.split("/")[0] for label in result["series"]}):
            star = _final(result, f"{crawl}/star")
            induced = _final(result, f"{crawl}/induced")
            if not star < induced:
                broken.append(f"{panel}: {crawl} star {star:.3g} >= induced {induced:.3g}")
    # 2010 sizes: stratification plus neighbor information lets S-WRW's
    # star estimator win.
    b = outputs["fig6b"]
    if not _final(b, "S-WRW10/star") < _final(b, "S-WRW10/induced"):
        broken.append("fig6b: S-WRW10 star sizes do not beat induced")
    return broken


CLAIMS = {"fig4": fig4_claims, "fig3a": fig3a_claims, "fig6": fig6_claims}


# ----------------------------------------------------------------------
# Work done: sum over sweeps of R x the largest |S|
# ----------------------------------------------------------------------
def draws(experiment: str, outputs: dict[str, dict], knobs: dict) -> int:
    """Replicate draws the run's sweeps consumed.

    ``knobs`` holds the scale preset's ``replications``, ``walks_2009``
    and ``walks_2010``. One sweep is one (substrate, design) cell; its
    largest |S| is the last x of its curve.
    """
    total = 0
    if experiment == "fig4":
        for key, result in outputs.items():
            if key.endswith("_sizes"):
                for design in ("UIS", "RW", "S-WRW"):
                    total += knobs["replications"] * _largest_size(result, f"{design}/induced")
    elif experiment == "fig3a":
        result = outputs["fig3a"]
        for config in ("k=5", "k=49"):
            total += knobs["replications"] * _largest_size(result, f"{config}/induced")
    elif experiment == "fig6":
        for panel, walks in (("fig6a", knobs["walks_2009"]), ("fig6b", knobs["walks_2010"])):
            result = outputs[panel]
            for label in result["series"]:
                if label.endswith("/induced"):
                    total += walks * _largest_size(result, label)
    else:
        raise ValueError(f"no draw count for experiment {experiment!r}")
    return total
