"""Byte identity of every CSV export with frozen copies of the per-cell code
it replaced: the region scan's per-sample violation strings, cmd_region's
row tuples, and a write_csv that formats one cell at a time."""

import json
import os

import numpy as np
import pytest

from zrbr.evolution import picard_iterate, run_simulation
from zrbr.exponents import REFERENCE_BOX, _theta_arrays, constraint_matrix, region_scan
from zrbr.harness import (
    cmd_epsilon_scaling,
    cmd_picard,
    cmd_region,
    cmd_simulate,
    config_from_dict,
    format_float,
    initial_plus_minus,
    make_report,
    write_report,
)

DOC = {
    "dim": 2, "n": 16, "length": 4 * np.pi, "dt": 1e-3, "t_end": 0.02,
    "sigma2": -1.0, "W": 1.0, "D": 0.5, "epsilon": 1.0,
    "recipe": "gaussian", "width": 1.0, "normalize_h1": 1.0, "diagnostics_stride": 5,
}


# ---------------------------------------------------------------------------
# Frozen reference: one format call per cell, one join per sample.
# ---------------------------------------------------------------------------

def reference_write_csv(path, header, rows):
    with open(path, "w", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(
                ",".join(
                    format_float(v) if isinstance(v, float) else str(v) for v in row
                )
                + "\n"
            )


def reference_region_scan(d, resolution):
    b1_axis = np.arange(0.5 + resolution, 1.0, resolution)
    b2_axis = np.arange(0.0, 0.5 + 0.5 * resolution, resolution)
    B1, B2 = np.meshgrid(b1_axis, b2_axis, indexing="ij")
    b1 = B1.ravel()
    b2 = B2.ravel()

    passes, ids = constraint_matrix(b1, b2, d)
    admissible = np.all(passes, axis=0)

    violated = []
    fails = ~passes
    any_fail = np.any(fails, axis=0)
    for j in range(len(b1)):
        if any_fail[j]:
            violated.append(";".join(ids[i] for i in range(len(ids)) if fails[i, j]))
        else:
            violated.append("")

    safe = b1 != b2
    min_theta = np.full(len(b1), np.nan)
    if np.any(safe):
        thetas = _theta_arrays(b1[safe], b2[safe], d, b1[safe], 1e-6)
        min_theta[safe] = np.min(np.stack(thetas, axis=0), axis=0)

    box = REFERENCE_BOX[d]
    margin = 2.0 * resolution
    in_box = (
        (b1 > box["b1"][0] + margin)
        & (b1 < box["b1"][1] - margin)
        & (b2 < box["b2"][1] - margin)
    )
    if box["b2_closed_low"]:
        in_box &= b2 >= box["b2"][0]
    else:
        in_box &= b2 > box["b2"][0] + margin

    contained = bool(np.all(admissible[in_box])) if np.any(in_box) else False
    witnesses = []
    bad = in_box & ~admissible
    for j in np.nonzero(bad)[0][:50]:
        witnesses.append({"b1": float(b1[j]), "b2": float(b2[j]), "violated": violated[j]})

    adm_grid = admissible.reshape(B1.shape)
    point_rows = np.any(adm_grid, axis=1)
    pointwise = None
    if np.any(point_rows):
        pointwise = (float(b1_axis[point_rows][0]), float(b1_axis[point_rows][-1]))
    b2_in = b2_axis < box["b2"][1] - margin
    if not box["b2_closed_low"]:
        b2_in &= b2_axis > box["b2"][0] + margin
    uniform = None
    if np.any(b2_in):
        uni_rows = np.all(adm_grid[:, b2_in], axis=1)
        if np.any(uni_rows):
            uniform = (float(b1_axis[uni_rows][0]), float(b1_axis[uni_rows][-1]))
    return b1, b2, admissible, violated, min_theta, contained, witnesses, pointwise, uniform


def reference_cmd_region(d, resolution, out_dir):
    os.makedirs(out_dir, exist_ok=True)
    (b1s, b2s, adms, violated, min_theta, contained, witnesses, pointwise,
     uniform) = reference_region_scan(d, resolution)
    rows = [
        (float(b1), float(b2), int(adm), vio, float(mt))
        for b1, b2, adm, vio, mt in zip(b1s, b2s, adms, violated, min_theta)
    ]
    reference_write_csv(
        os.path.join(out_dir, f"region_d{d}.csv"),
        ["b1", "b2", "admissible", "violated_ids", "min_theta"],
        rows,
    )
    payload = {
        "d": d,
        "resolution": resolution,
        "n_samples": len(rows),
        "n_admissible": int(np.sum(adms)),
        "reference_box_contained": contained,
        "witnesses": witnesses,
        "pointwise_b1_range": pointwise,
        "uniform_b1_range": uniform,
    }
    report = make_report("region", {"d": d, "resolution": resolution}, None, payload)
    write_report(os.path.join(out_dir, "report.json"), report)


def read_bytes(path):
    with open(path, "rb") as fh:
        return fh.read()


# ---------------------------------------------------------------------------

class TestRegionExport:
    # region_scan takes whole b1 rows, at most 2**14 samples at a time:
    # 7e-3 is 71 rows of 72 samples, one block; 2e-3 is 249 rows of 251,
    # several blocks of 65 rows with a partial last one of 54, and 251 does
    # not divide 2**14; 1/510 is 254 rows of 256, which divides 2**14, so the
    # blocks are 64 rows, full but for the last one of 62.
    @pytest.mark.parametrize("d", [2, 3])
    @pytest.mark.parametrize("resolution", [2e-3, 7e-3, 1 / 510])
    def test_csv_and_report_byte_identical(self, tmp_path, d, resolution):
        cmd_region(d, resolution, str(tmp_path / "new"))
        reference_cmd_region(d, resolution, str(tmp_path / "ref"))
        for name in (f"region_d{d}.csv", "report.json"):
            new = read_bytes(tmp_path / "new" / name)
            assert new == read_bytes(tmp_path / "ref" / name), name
        n_samples = json.loads(new)["payload"]["n_samples"]
        assert read_bytes(tmp_path / "new" / f"region_d{d}.csv").count(b"\n") == n_samples + 1

    def test_violation_strings_are_shared_per_code(self):
        scan = region_scan(3, 5e-3)
        _, _, _, violated, *_ = reference_region_scan(3, 5e-3)
        assert scan.violated_ids == violated
        # one object per distinct set of failed constraints
        assert len({id(v) for v in scan.violated_ids}) == len(set(violated)) <= 2**10
        assert len(set(violated)) > 5


class TestSmallTables:
    def test_diagnostics_csv_byte_identical(self, tmp_path):
        cfg, echo = config_from_dict(DOC)
        cmd_simulate(cfg, echo, str(tmp_path / "new"))
        traj = run_simulation(cfg)
        rows = list(
            zip(traj.times, traj.mass, traj.energy, traj.max_abs_psi, traj.l2_rho, traj.l2_phi)
        )
        reference_write_csv(str(tmp_path / "ref.csv"),
                            ["t", "mass", "energy", "max_abs_psi", "l2_rho", "l2_phi"], rows)
        new = read_bytes(tmp_path / "new" / "diagnostics.csv")
        assert new == read_bytes(tmp_path / "ref.csv")
        assert new.count(b"\n") == 6

    def test_epsilon_scaling_csv_byte_identical(self, tmp_path):
        cfg, echo = config_from_dict(DOC)
        _, report = cmd_epsilon_scaling(cfg, echo, [1.0, 0.5], str(tmp_path / "new"))
        rows = [(r["epsilon"], r["T_proxy"]) for r in report["payload"]["rows"]]
        reference_write_csv(str(tmp_path / "ref.csv"), ["epsilon", "T_proxy"], rows)
        assert read_bytes(tmp_path / "new" / "epsilon_scaling.csv") == read_bytes(
            tmp_path / "ref.csv")

    def test_picard_csv_byte_identical(self, tmp_path):
        cfg, echo = config_from_dict({**DOC, "normalize_h1": 1e-3, "t_end": 0.0})
        T_list = [0.1, 0.2]
        cmd_picard(cfg, echo, T_list, 3, str(tmp_path / "new"), n_time=32)
        initial = initial_plus_minus(cfg)
        rows = []
        for T in T_list:
            _, rep = picard_iterate(initial, float(T), 3, cfg.params, n_time=32)
            rows.append((float(T), rep.contraction_factor, int(rep.contracting)))
        reference_write_csv(str(tmp_path / "ref.csv"),
                            ["T", "contraction_factor", "contracting"], rows)
        new = read_bytes(tmp_path / "new" / "picard.csv")
        assert new == read_bytes(tmp_path / "ref.csv")
        report = json.loads(read_bytes(tmp_path / "new" / "report.json"))
        assert len(report["payload"]["per_T"]) == 2
