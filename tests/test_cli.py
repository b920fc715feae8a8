"""Command-line front end: config validation, data files, determinism."""

import csv
import hashlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from cylwave import cli, diagnostics, discrete, exact, fields, specfun
from cylwave.exact import Medium
from cylwave.geometry import Excitation

PRESETS = Path(__file__).resolve().parent.parent / "presets"


def _write_config(tmp_path, mutate=None, name="config.json"):
    doc = {
        "geometry": {
            "kind": "circle",
            "radius": 2.0,
            "aux": {"inner_radius": 1.5, "outer_radius": 2.5},
        },
        "media": {
            "region1": {"eps_r": 1.0, "mu_r": 1.0},
            "region2": {"eps_r": 4.2, "mu_r": 1.0},
        },
        "excitation": {"region": "external", "radius": 4.0, "amplitude": 1.0},
        "solver": {"method": "nfm", "n_points": 12},
        "output": {"directory": str(tmp_path / "out")},
    }
    if mutate is not None:
        mutate(doc)
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return path


def _read_table(path):
    lines = path.read_text().splitlines()
    assert lines[0] == "# schema=1"
    assert lines[1].startswith("# config_sha256=")
    header = lines[2].split(",")
    return [dict(zip(header, line.split(","))) for line in lines[3:]]


def test_solve_writes_currents_and_summary(tmp_path):
    out = tmp_path / "run"
    code = cli.main(
        ["solve", "--config", str(PRESETS / "circle-external-currents.json"), "--out", str(out)]
    )
    assert code == 0
    rows = _read_table(out / "currents.csv")
    assert len(rows) == 40
    assert float(rows[3]["angle"]) == pytest.approx(3 * 2 * np.pi / 40)
    summary = json.loads((out / "summary.json").read_text())
    assert summary["schema"] == 1
    assert summary["method"] == "nfm"
    assert summary["solver_path"] == "dft"
    assert summary["residual"] < 1e-9
    assert set(summary["oscillation"]) == {"electric", "magnetic"}
    assert not summary["oscillation"]["electric"]["flagged"]


_WRITES = {
    "solve": {"currents.csv", "summary.json"},
    "fields": {"fields.csv"},
    "sweep": {"sweep.csv"},
}


def _preset_runs():
    runs = []
    for preset in sorted(PRESETS.glob("*.json")):
        solver = json.loads(preset.read_text())["solver"]
        single = "n_points" in solver
        one_method = solver["method"] != "both"
        for command, supported in (
            ("solve", single and one_method),
            ("fields", single),
            ("sweep", one_method),
        ):
            if supported:
                runs.append(pytest.param(preset, command, id="%s-%s" % (preset.stem, command)))
    return runs


@pytest.mark.parametrize("preset, command", _preset_runs())
def test_every_preset_runs_each_command_it_supports(tmp_path, preset, command):
    out = tmp_path / "out"
    assert cli.main([command, "--config", str(preset), "--out", str(out)]) == 0
    assert {path.name for path in out.iterdir()} == _WRITES[command]


@pytest.mark.parametrize(
    "command, preset, names",
    [
        (cli.cmd_solve, "circle-external-currents", ["currents.csv", "summary.json"]),
        (cli.cmd_fields, "coarse-n-comparison", ["fields.csv"]),
        (cli.cmd_sweep, "mas-divergence", ["sweep.csv"]),
    ],
    ids=["solve", "fields", "sweep"],
)
def test_commands_return_their_files_and_main_writes_them(
    tmp_path, capsys, monkeypatch, command, preset, names
):
    monkeypatch.chdir(tmp_path)
    config = str(PRESETS / (preset + ".json"))
    files = command(cli.load_config(config))
    assert list(files) == names
    assert list(tmp_path.iterdir()) == []
    capsys.readouterr()
    out = tmp_path / "out"
    name = command.__name__[len("cmd_"):]
    assert cli.main([name, "--config", config, "--out", str(out)]) == 0
    assert capsys.readouterr().out == "".join("wrote %s\n" % (out / n) for n in names)
    assert sorted(path.name for path in out.iterdir()) == sorted(names)
    for file_name, text in files.items():
        assert (out / file_name).read_bytes() == text.encode("utf-8")


def test_solve_output_is_byte_identical_across_reruns(tmp_path):
    preset = str(PRESETS / "circle-internal-currents.json")
    for name in ("a", "b"):
        assert cli.main(["solve", "--config", preset, "--out", str(tmp_path / name)]) == 0
    for name in ("currents.csv", "summary.json"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def _per_value_table_text(sha256, columns):
    """A table written one cell at a time through csv.writer, floats as %.17g."""
    buf = io.StringIO()
    buf.write("# schema=%d\n# config_sha256=%s\n" % (cli._SCHEMA, sha256))
    writer = csv.writer(buf, lineterminator="\n")
    header, cells = [], []
    for name, values in columns.items():
        parts = (values.real, values.imag) if values.dtype.kind == "c" else (values,)
        header += ["re_" + name, "im_" + name] if len(parts) == 2 else [name]
        for part in parts:
            floats = part.dtype.kind == "f"
            cells.append(["%.17g" % v for v in part.tolist()] if floats else part.tolist())
    writer.writerow(header)
    writer.writerows(zip(*cells))
    return buf.getvalue()


def test_table_rows_are_the_bytes_of_the_per_value_writer(monkeypatch):
    rng = np.random.default_rng(3)
    values = np.r_[rng.standard_normal(9) * 10.0 ** rng.integers(-300, 300, 9), 0.0, -0.0,
                   np.inf, -np.inf, np.nan, 1.0, 5e-324, 1e308, 0.1]
    with np.errstate(invalid="ignore"):  # inf times a unit complex has a nan part
        complex_values = values * np.exp(1j * np.arange(values.size)) + 1j * values[::-1]
    for rows in (0, 1, values.size):
        columns = {
            "ring_radius": values[:rows],
            "region": np.arange(rows) % 3 - 1,
            "angle": values[::-1][:rows].copy(),
            "nfm": complex_values[:rows],
        }
        want = _per_value_table_text("ab" * 32, columns)
        assert cli._table_text("ab" * 32, columns).encode() == want.encode()
    # the same on the tables the solve and fields commands write
    seen, table_text = [], cli._table_text
    monkeypatch.setattr(cli, "_table_text", lambda *args: seen.append(args) or table_text(*args))
    for command, preset, name in (
        (cli.cmd_solve, "circle-external-currents", "currents.csv"),
        (cli.cmd_fields, "circle-external-fields", "fields.csv"),
    ):
        text = command(cli.load_config(str(PRESETS / (preset + ".json"))))[name]
        assert text == _per_value_table_text(*seen[-1])
    assert seen[-1][1]["region"].dtype.kind == "i" and len(text.splitlines()) > 40


def test_data_files_name_the_config_hash(tmp_path):
    preset = PRESETS / "circle-external-currents.json"
    assert cli.main(["solve", "--config", str(preset), "--out", str(tmp_path)]) == 0
    line = (tmp_path / "currents.csv").read_text().splitlines()[1]
    assert line == "# config_sha256=" + hashlib.sha256(preset.read_bytes()).hexdigest()


def test_output_directory_comes_from_the_config_unless_overridden(tmp_path, monkeypatch):
    config = _write_config(tmp_path)
    monkeypatch.chdir(tmp_path)
    assert cli.main(["solve", "--config", str(config)]) == 0
    assert (tmp_path / "out" / "currents.csv").exists()


def test_empty_n_list_is_rejected_with_a_field_path(tmp_path, capsys):
    def mutate(doc):
        doc["solver"] = {"method": "nfm", "n_list": []}

    code = cli.main(["solve", "--config", str(_write_config(tmp_path, mutate))])
    assert code == 2
    assert "solver.n_list" in capsys.readouterr().err


@pytest.mark.parametrize(
    "entry, message",
    [(40.5, "expected an integer"), (True, "expected an integer"), (3, "must be at least 4")],
    ids=["float", "bool", "small"],
)
def test_n_list_entries_are_checked_like_other_integers(tmp_path, capsys, entry, message):
    def mutate(doc):
        doc["solver"] = {"method": "nfm", "n_list": [12, entry]}

    code = cli.main(["sweep", "--config", str(_write_config(tmp_path, mutate))])
    assert code == 2
    assert "solver.n_list[1]: %s" % message in capsys.readouterr().err


def test_malformed_json_is_rejected(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert cli.main(["solve", "--config", str(bad)]) == 2
    assert "not valid JSON" in capsys.readouterr().err


def test_aux_keys_must_match_the_geometry_kind(tmp_path, capsys):
    def mutate(doc):
        doc["geometry"]["aux"] = {"inner_scale": 0.75, "outer_scale": 1.25}

    assert cli.main(["solve", "--config", str(_write_config(tmp_path, mutate))]) == 2
    assert "geometry.aux.inner_radius" in capsys.readouterr().err


def test_unknown_solver_path_is_rejected(tmp_path, capsys):
    # the geometry picks the solve path and the sweep reference; no field
    # selects them, so the old fields are unknown ones
    for block, key, value in (
        ("solver", "path", "lu"),
        ("solver", "path", "dense"),
        ("solver", "path", "fast"),
        ("output", "reference", "residual"),
    ):
        def mutate(doc):
            doc[block][key] = value

        assert cli.main(["solve", "--config", str(_write_config(tmp_path, mutate))]) == 2
        err = capsys.readouterr().err
        assert "%s.%s: unknown field" % (block, key) in err


@pytest.mark.parametrize(
    "message, mutate",
    [
        ("media.region2.eps: unknown field", lambda doc: doc["media"].update(region2={"eps": 4.2})),
        ("output.ring: unknown field", lambda doc: doc["output"].update(ring=[[10.0, 1]])),
        ("excitation.amplitud: unknown field", lambda doc: doc["excitation"].update(amplitud=2.0)),
        (
            "solver: give n_points or n_list, not both",
            lambda doc: doc["solver"].update(n_list=[12]),
        ),
        ("outputs: unknown field", lambda doc: doc.update(outputs={})),
        ("geometry.semi_major: unknown field", lambda doc: doc["geometry"].update(semi_major=3.0)),
        (
            "geometry.aux.outer_scale: unknown field",
            lambda doc: doc["geometry"]["aux"].update(outer_scale=1.25),
        ),
        ("media.region3: unknown field", lambda doc: doc["media"].update(region3={})),
        ("solver.n_point: unknown field", lambda doc: doc["solver"].update(n_point=40)),
        # the first unknown field in document order is the one named
        (
            "excitation.phi: unknown field",
            lambda doc: doc["excitation"].update(phi=0.5, amp=2.0),
        ),
    ],
    ids=[
        "region-eps",
        "output-ring",
        "amplitude",
        "n-points-and-n-list",
        "top-level",
        "circle-semi-major",
        "aux-scale-on-circle",
        "media-region3",
        "solver-n-point",
        "document-order",
    ],
)
def test_unknown_config_fields_are_refused_with_their_path(tmp_path, capsys, message, mutate):
    # the parser would leave each of these unread and run on a default in its place
    config = _write_config(tmp_path, mutate)
    out = tmp_path / "o"
    assert cli.main(["solve", "--config", str(config), "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err == "cylwave: error: %s\n" % (message,)
    assert captured.out == ""
    assert not out.exists()


@pytest.mark.parametrize(
    "field, mutate",
    [
        ("excitation.amplitude", lambda doc: doc["excitation"].update(amplitude=float("nan"))),
        (
            "excitation.amplitude",
            lambda doc: doc["excitation"].update(amplitude=[1.0, float("inf")]),
        ),
        ("excitation.radius", lambda doc: doc["excitation"].update(radius=float("inf"))),
        ("excitation.angle", lambda doc: doc["excitation"].update(angle=float("inf"))),
        ("media.region2.eps_r", lambda doc: doc["media"]["region2"].update(eps_r=float("nan"))),
        ("geometry.radius", lambda doc: doc["geometry"].update(radius=float("inf"))),
        (
            "geometry.aux.outer_radius",
            lambda doc: doc["geometry"]["aux"].update(outer_radius=10**400),
        ),
        (
            "output.rings[1]",
            lambda doc: doc["output"].update(rings=[[10.0, 1], [float("nan"), 2]]),
        ),
        ("output.angle_offset", lambda doc: doc["output"].update(angle_offset=float("-inf"))),
    ],
    ids=[
        "amplitude",
        "amplitude-pair",
        "radius",
        "angle",
        "eps_r",
        "geometry-radius",
        "integer-overflow",
        "ring-radius",
        "angle-offset",
    ],
)
def test_non_finite_numbers_are_rejected_with_a_field_path(tmp_path, capsys, field, mutate):
    # json reads NaN and Infinity; none of them may reach the solver
    config = _write_config(tmp_path, mutate)
    for command in ("solve", "fields"):
        assert cli.main([command, "--config", str(config), "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err == "cylwave: error: %s: must be finite\n" % (field,)
    assert not (tmp_path / "o").exists()


def _ellipse(**aux):
    def mutate(doc):
        doc["geometry"] = {
            "kind": "ellipse",
            "semi_major": 2.0,
            "semi_minor": 1.6,
            "aux": dict({"inner_scale": 0.75, "outer_scale": 1.25}, **aux),
        }

    return mutate


def _ellipse_ring(rho, region):
    def mutate(doc):
        _ellipse()(doc)
        doc["output"]["rings"] = [[rho, region]]

    return mutate


@pytest.mark.parametrize("command", ["solve", "fields", "sweep"])
@pytest.mark.parametrize(
    "field, mutate",
    [
        (
            "geometry.aux.inner_radius",
            lambda doc: doc["geometry"]["aux"].update(inner_radius=2.6, outer_radius=3.0),
        ),
        (
            "geometry.aux.inner_radius",
            lambda doc: doc["geometry"]["aux"].update(inner_radius=2.5, outer_radius=1.5),
        ),
        (
            "geometry.aux.outer_radius",
            lambda doc: doc["geometry"]["aux"].update(outer_radius=1.8),
        ),
        ("geometry.aux.inner_scale", _ellipse(inner_scale=1.2)),
        ("geometry.aux.outer_scale", _ellipse(outer_scale=0.9)),
        ("excitation.radius", lambda doc: doc["excitation"].update(radius=1.0)),
        ("excitation.radius", lambda doc: doc["excitation"].update(radius=2.0)),
        (
            "excitation.radius",
            lambda doc: doc["excitation"].update(region="internal", radius=3.0),
        ),
        ("output.rings[1]", lambda doc: doc["output"].update(rings=[[10.0, 1], [1.0, True]])),
        ("output.rings[0]", lambda doc: doc["output"].update(rings=[[10.0, 1.0]])),
        ("output.rings[0]", lambda doc: doc["output"].update(rings=[[1.0, 1]])),
        ("output.rings[1]", lambda doc: doc["output"].update(rings=[[10.0, 1], [3.0, 2]])),
        # rho = 1.8 lies inside the 2.0/1.6 ellipse at angle 0, outside at pi/2
        ("output.rings[0]", _ellipse_ring(1.8, 1)),
    ],
    ids=[
        "inner-outside",
        "radii-swapped",
        "outer-inside",
        "ellipse-inner-outside",
        "ellipse-outer-inside",
        "external-source-inside",
        "external-source-on-boundary",
        "internal-source-outside",
        "ring-region-bool",
        "ring-region-float",
        "region-1-ring-inside",
        "region-2-ring-outside",
        "region-1-ring-crossing-ellipse",
    ],
)
def test_misplaced_inputs_are_rejected_at_load_with_their_field(
    tmp_path, capsys, command, field, mutate
):
    # before any solve, for both routes: a sweep used to record one failure
    # row per N and exit 0, and the source route's divergence prediction
    # failed on an external source inside or on the boundary
    for method in ("nfm", "mas"):
        def placed(doc):
            mutate(doc)
            doc["solver"]["method"] = method

        config = _write_config(tmp_path, placed)
        out = tmp_path / "o"
        assert cli.main([command, "--config", str(config), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("cylwave: error: %s: " % (field,))
        assert err.count("\n") == 1
        assert not out.exists()


@pytest.mark.parametrize("method", ["nfm", "mas"])
def test_solve_summary_reports_the_oscillation_of_a_one_size_scan(tmp_path, method):
    path = _write_config(tmp_path, lambda doc: doc["solver"].update(method=method))
    out = tmp_path / "run"
    assert cli.main(["solve", "--config", str(path), "--out", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    config = cli.load_config(path)
    scan = diagnostics.oscillation_scan(
        method, config.geometry(), config.excitation, config.media, config.n_list
    )
    assert all(report.flagged.shape == (1,) for report in scan.reports.values())
    want = {
        label: {
            "oscillation_index": float(report.oscillation_index[0]),
            "max_amplitude": float(report.max_amplitude[0]),
            "growth_factor": float(report.growth_factor[0]),
            "flagged": bool(report.flagged[0]),
        }
        for label, report in scan.reports.items()
    }
    assert summary["oscillation"] == want


def test_solve_and_sweep_refuse_method_both(tmp_path, capsys):
    def mutate(doc):
        doc["solver"]["method"] = "both"

    config = _write_config(tmp_path, mutate)
    assert cli.main(["solve", "--config", str(config)]) == 2
    assert "solver.method" in capsys.readouterr().err


def test_amplitude_accepts_a_real_imaginary_pair(tmp_path):
    def mutate(doc):
        doc["excitation"]["amplitude"] = [0.0, 2.0]

    config = _write_config(tmp_path, mutate)
    assert cli.main(["solve", "--config", str(config), "--out", str(tmp_path / "o")]) == 0

    def bad(doc):
        doc["excitation"]["amplitude"] = "strong"

    assert cli.main(["solve", "--config", str(_write_config(tmp_path, bad, "b.json"))]) == 2


def test_fields_compares_methods_against_the_series(tmp_path):
    out = tmp_path / "f"
    code = cli.main(
        ["fields", "--config", str(PRESETS / "coarse-n-comparison.json"), "--out", str(out)]
    )
    assert code == 0
    rows = _read_table(out / "fields.csv")
    assert len(rows) == 72
    exact = np.array([complex(float(r["re_exact"]), float(r["im_exact"])) for r in rows])
    for method in ("nfm", "mas"):
        got = np.array(
            [complex(float(r["re_" + method]), float(r["im_" + method])) for r in rows]
        )
        worst = np.max(np.abs(got - exact)) / np.max(np.abs(exact))
        # N = 10 is deliberately coarse; both methods sit at percent level
        assert 1e-4 < worst < 0.2


def test_fine_fields_reproduce_the_series_to_three_digits(tmp_path):
    out = tmp_path / "f"
    code = cli.main(
        ["fields", "--config", str(PRESETS / "circle-external-fields.json"), "--out", str(out)]
    )
    assert code == 0
    rows = _read_table(out / "fields.csv")
    for region in ("1", "2"):
        ring = [r for r in rows if r["region"] == region]
        exact = np.array([complex(float(r["re_exact"]), float(r["im_exact"])) for r in ring])
        nfm = np.array([complex(float(r["re_nfm"]), float(r["im_nfm"])) for r in ring])
        assert np.max(np.abs(nfm - exact)) / np.max(np.abs(exact)) < 1e-3


def test_ellipse_fields_carry_no_exact_columns(tmp_path):
    out = tmp_path / "f"
    code = cli.main(
        ["fields", "--config", str(PRESETS / "ellipse-external-fields.json"), "--out", str(out)]
    )
    assert code == 0
    header = (out / "fields.csv").read_text().splitlines()[2]
    assert "exact" not in header
    assert "re_nfm" in header


def test_default_rings_clear_an_elongated_ellipse(tmp_path):
    # five times the semi-minor axis, 1.75, lies inside the 2.0/0.35 ellipse
    # near its major axis
    doc = json.loads((PRESETS / "ellipse-external-fields.json").read_text())
    doc["geometry"]["semi_minor"] = 0.35
    del doc["output"]["rings"]
    config = tmp_path / "elongated.json"
    config.write_text(json.dumps(doc))
    out = tmp_path / "f"
    assert cli.main(["fields", "--config", str(config), "--out", str(out)]) == 0
    rows = _read_table(out / "fields.csv")
    # the outer ring, at twice the semi-major axis, meets the filament at 4
    # and moves out by half
    radii = {r["region"]: float(r["ring_radius"]) for r in rows}
    assert radii == pytest.approx({"1": 6.0, "2": 0.175}, rel=1e-15)


def test_ring_through_the_filament_is_a_clean_error(tmp_path, capsys):
    def mutate(doc):
        doc["excitation"] = {"region": "internal", "radius": 1.0}
        doc["output"]["rings"] = [[1.0, 2]]

    config = _write_config(tmp_path, mutate)
    assert cli.main(["fields", "--config", str(config)]) == 2
    assert "filament" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command, angle, solver",
    [
        ("fields", 0.0, {"method": "nfm", "n_points": 40}),
        # the sweep samples its rings at (k + 0.5) * 10 degrees, not at output.angles
        ("sweep", np.pi / 36, {"method": "nfm", "n_list": [40, 46]}),
    ],
    ids=["fields", "sweep"],
)
def test_configured_ring_through_the_filament_is_refused_before_any_solve(
    tmp_path, capsys, monkeypatch, command, angle, solver
):
    solved, solve = [], discrete.solve

    def counting_solve(system, shared=None):
        solved.append(system.n_points)
        return solve(system, shared)

    monkeypatch.setattr(discrete, "solve", counting_solve)

    def mutate(doc):
        doc["excitation"] = {"region": "external", "radius": 4.0, "angle": angle}
        doc["solver"] = solver
        doc["output"].update(angles=4, rings=[[10.0, 1], [4.0, 1]])

    config = _write_config(tmp_path, mutate)
    assert cli.main([command, "--config", str(config)]) == 2
    err = capsys.readouterr().err
    assert "output.rings[1]: observation point coincides with the source filament" in err
    assert solved == []


def test_ring_through_a_radiating_node_is_a_clean_error(tmp_path, capsys):
    # validation admits a ring on the boundary; its angle 0 is collocation node 0
    def mutate(doc):
        doc["output"]["rings"] = [[2.0, 1], [1.0, 2]]

    config = _write_config(tmp_path, mutate)
    assert cli.main(["fields", "--config", str(config)]) == 2
    err = capsys.readouterr().err
    assert "observation point at radius 2 coincides with a radiating node of the nfm" in err


def test_default_rings_avoid_the_filament(tmp_path):
    # the internal filament sits at half the boundary radius, on the default
    # inner ring's radius, and at one of its sample angles
    out = tmp_path / "f"
    preset = str(PRESETS / "circle-internal-currents.json")
    assert cli.main(["fields", "--config", preset, "--out", str(out)]) == 0
    rows = _read_table(out / "fields.csv")
    assert {(r["ring_radius"], r["region"]) for r in rows} == {("10", "1"), ("1.5", "2")}
    exact_values = np.array([complex(float(r["re_exact"]), float(r["im_exact"])) for r in rows])
    nfm = np.array([complex(float(r["re_nfm"]), float(r["im_nfm"])) for r in rows])
    assert np.max(np.abs(nfm - exact_values)) / np.max(np.abs(exact_values)) < 1e-3


def test_sweep_default_rings_avoid_the_filament(tmp_path):
    # the sweep samples its rings at (k + 0.5) * 10 degrees, so a filament on
    # the default inner ring at 5 degrees sat on a sample point
    def mutate(doc):
        doc["geometry"]["aux"] = {"inner_radius": 0.5, "outer_radius": 2.5}
        doc["excitation"] = {"region": "internal", "radius": 1.0, "angle": np.pi / 36}
        doc["solver"] = {"method": "nfm", "n_list": [12, 16]}

    out = tmp_path / "s"
    config = str(_write_config(tmp_path, mutate))
    assert cli.main(["sweep", "--config", config, "--out", str(out)]) == 0
    rows = _read_table(out / "sweep.csv")
    assert {r["n_points"] for r in rows} == {"12", "16"}
    assert all(r["error"] not in ("", "nan") for r in rows)


def test_fields_sum_each_ring_in_one_pass(tmp_path, monkeypatch):
    calls = []
    evaluate = specfun.bessel_orders

    def recording(hankel, n, x):
        calls.append((hankel, np.asarray(n).tolist(), np.atleast_1d(x).tolist()))
        return evaluate(hankel, n, x)

    monkeypatch.setattr(specfun, "bessel_orders", recording)
    source = Excitation("external", 4.0)
    cap = exact.default_n_cap("ext_R1", 10.0, 2.0, source, Medium(), Medium(4.2))
    for angles in (4, 144):
        def mutate(doc):
            doc["output"].update(rings=[[10.0, 1]], angles=angles)

        calls.clear()
        assert cli.main(["fields", "--config", str(_write_config(tmp_path, mutate))]) == 0
        # one call per kind and run, each (order, argument) pair once in it
        assert [hankel for hankel, _, _ in calls] == [False, True] * (len(calls) // 2)
        for _, orders, args in calls:
            assert len(set(orders)) == len(orders) and len(set(args)) == len(args)
        # the runs take the orders 0, 1, 2, ... once for every angle of the ring
        orders = [n for hankel, run, _ in calls if not hankel for n in run[1:-1]]
        assert orders == list(range(len(orders)))
        assert 0 < len(orders) <= cap + 1


def test_fields_evaluate_each_ring_in_one_call(tmp_path, monkeypatch):
    calls = []
    evaluate = fields.field_from_discrete

    def counting(*args, **kwargs):
        calls.append(args)
        return evaluate(*args, **kwargs)

    monkeypatch.setattr(fields, "field_from_discrete", counting)
    config = str(PRESETS / "coarse-n-comparison.json")
    assert cli.main(["fields", "--config", config, "--out", str(tmp_path)]) == 0
    # two rings of 36 angles, both routes: one call per ring and route
    assert len(calls) == 4


def test_unconverged_references_are_reported_on_stderr(tmp_path, capsys):
    # with the filament just outside the boundary the transmitted-field
    # series decays like (1.95 / 2.2)^n on the inner ring, and its Hankel
    # factors overflow at order 169 before the stopping rule holds; the
    # outer ring converges and stays silent
    def rings(doc):
        doc["geometry"]["aux"]["outer_radius"] = 2.1
        doc["excitation"]["radius"] = 2.2
        doc["output"]["rings"] = [[10.0, 1], [1.95, 2]]

    def sweep(doc):
        rings(doc)
        doc["solver"] = {"method": "nfm", "n_list": [12, 16]}

    line = (
        "cylwave: warning: exact series on ring rho = 1.95 (region 2): "
        "36 of 36 points not converged, worst tail estimate "
    )
    for command, mutate in (("fields", rings), ("sweep", sweep)):
        config = _write_config(tmp_path, mutate, name=command + ".json")
        out = str(tmp_path / command)
        assert cli.main([command, "--config", str(config), "--out", out]) == 0
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(line)
        assert 0.0 < float(err[0][len(line):]) < 1e-3


def test_divergence_sweep_table_tells_the_whole_story(tmp_path):
    out = tmp_path / "s"
    code = cli.main(
        ["sweep", "--config", str(PRESETS / "mas-divergence.json"), "--out", str(out)]
    )
    assert code == 0
    rows = _read_table(out / "sweep.csv")
    assert [r["surface"] for r in rows] == ["aux1", "aux2", "aux1", "aux2"]
    assert all(r["predicted"] == "diverges" for r in rows)
    first, last = rows[0], rows[-1]
    assert first["growth_factor"] == ""
    assert float(last["growth_factor"]) > 10.0
    assert last["flagged"] == "true"
    # the currents blow up while the radiated field stays accurate
    assert all(float(r["error"]) < 1e-6 for r in rows)


def test_one_parser_serves_every_command_of_a_process(tmp_path, capsys):
    assert cli._build_parser() is cli._build_parser()
    out = tmp_path / "sweep"
    preset = str(PRESETS / "nfm-stability.json")
    assert cli.main(["sweep", "--config", preset, "--out", str(out)]) == 0
    # the next command parses its own argv: the sweep's --out does not carry over
    assert cli.main(["validate", "--only", "exact"]) == 0
    assert not (out / "validate.json").exists()
    assert "wrote" not in capsys.readouterr().out.splitlines()[-1]
    with pytest.raises(SystemExit) as exit_info:
        cli.main(["solve"])
    assert exit_info.value.code == 2
    assert "--config" in capsys.readouterr().err


def test_sweep_solves_each_n_once_and_sums_each_reference_once(tmp_path, monkeypatch):
    solved, rings = [], []
    solve, exact_ring = discrete.solve, diagnostics.exact_ring

    def counting_solve(system, shared=None):
        solved.append(system.n_points)
        return solve(system, shared)

    def counting_rings(*args, **kwargs):
        rings.append(args)
        return exact_ring(*args, **kwargs)

    monkeypatch.setattr(discrete, "solve", counting_solve)
    monkeypatch.setattr(diagnostics, "exact_ring", counting_rings)
    preset = str(PRESETS / "nfm-stability.json")
    assert cli.main(["sweep", "--config", preset, "--out", str(tmp_path)]) == 0
    assert sorted(solved) == [40, 46, 81]
    # one series pass per ring over its 36 angles
    assert [(args[1], len(args[3])) for args in rings] == [(1, 36), (2, 36)]


def test_solve_and_fields_solve_each_method_once_and_sum_each_ring_once(tmp_path, monkeypatch):
    solved, rings = [], []
    solve, exact_ring = discrete.solve, diagnostics.exact_ring

    def counting_solve(system, shared=None):
        solved.append((system.method, system.n_points))
        return solve(system, shared)

    def counting_rings(*args, **kwargs):
        rings.append(args)
        return exact_ring(*args, **kwargs)

    monkeypatch.setattr(discrete, "solve", counting_solve)
    monkeypatch.setattr(diagnostics, "exact_ring", counting_rings)
    preset = str(PRESETS / "circle-external-currents.json")
    assert cli.main(["solve", "--config", preset, "--out", str(tmp_path / "s")]) == 0
    assert solved == [("nfm", 40)] and rings == []
    solved.clear()
    # method both, two rings of 36 angles
    preset = str(PRESETS / "coarse-n-comparison.json")
    assert cli.main(["fields", "--config", preset, "--out", str(tmp_path / "f")]) == 0
    assert solved == [("nfm", 10), ("mas", 10)]
    assert [(args[1], len(args[3])) for args in rings] == [(1, 36), (2, 36)]


@pytest.mark.parametrize("command", ["solve", "fields"])
def test_a_failed_solve_is_one_error_line_and_writes_nothing(tmp_path, capsys, monkeypatch, command):
    def singular(system, shared=None):
        raise ArithmeticError("singular")

    monkeypatch.setattr(discrete, "solve", singular)
    out = tmp_path / "out"
    config = str(PRESETS / "circle-external-currents.json")
    assert cli.main([command, "--config", config, "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err == "cylwave: error: singular\n"
    assert captured.out == ""
    assert not out.exists()


def test_retired_keys_are_refused_with_their_implied_values_too(tmp_path, capsys):
    # solver.path "auto" and output.reference "exact" repeat what the
    # geometry implies for this preset, and are refused by path all the same
    for block, key, value in (("solver", "path", "auto"), ("output", "reference", "exact")):
        doc = json.loads((PRESETS / "mas-divergence.json").read_text())
        doc[block][key] = value
        config = tmp_path / "config.json"
        config.write_text(json.dumps(doc))
        out = tmp_path / "s"
        assert cli.main(["sweep", "--config", str(config), "--out", str(out)]) == 2
        assert capsys.readouterr().err == "cylwave: error: %s.%s: unknown field\n" % (block, key)
        assert not out.exists()


def test_roundoff_amplitudes_warn_on_stderr(tmp_path, capsys, monkeypatch):
    for name, warns in (("ellipse-external-currents", True), ("circle-external-currents", False)):
        preset = str(PRESETS / (name + ".json"))
        assert cli.main(["solve", "--config", preset, "--out", str(tmp_path / name)]) == 0
        err = capsys.readouterr().err
        if warns:
            assert err.count("\n") == 1
            assert "condition estimate 1.3e+14 leaves about 1 significant digit" in err
        else:
            assert err == ""
    preset = str(PRESETS / "ellipse-external-fields.json")
    assert cli.main(["fields", "--config", preset, "--out", str(tmp_path / "f")]) == 0
    assert capsys.readouterr().err.count("cylwave: warning: nfm amplitudes at N = 40") == 1

    # the DFT pseudo-inverse names the singular values it dropped
    def mutate(doc):
        doc["solver"]["n_points"] = 1024

    config = str(_write_config(tmp_path, mutate))
    assert cli.main(["solve", "--config", config, "--out", str(tmp_path / "big")]) == 0
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert "; 1519 of 2048 singular values dropped as roundoff" in err

    # sweep warns once per solved N in ascending order, and the table is the
    # one it writes with the warning switched off
    line = "cylwave: warning: %s amplitudes at N = %d: condition estimate %s leaves about %s"
    for name, expected in (
        ("mas-divergence", [("mas", 40, "1.3e+13", "2 significant digits"),
                            ("mas", 46, "1.1e+15", "0 significant digits")]),
        ("nfm-stability", [("nfm", 40, "1.3e+13", "2 significant digits"),
                           ("nfm", 46, "1.6e+15", "0 significant digits"),
                           ("nfm", 81, "4.7e+17", "0 significant digits"
                            "; 66 of 162 singular values dropped as roundoff")]),
    ):
        preset = str(PRESETS / (name + ".json"))
        out = tmp_path / ("sweep-" + name)
        assert cli.main(["sweep", "--config", preset, "--out", str(out)]) == 0
        assert capsys.readouterr().err.splitlines() == [line % args for args in expected]
        with monkeypatch.context() as patch:
            patch.setattr(cli, "_report_roundoff", lambda method, solution: None)
            quiet = tmp_path / ("quiet-" + name)
            assert cli.main(["sweep", "--config", preset, "--out", str(quiet)]) == 0
        assert capsys.readouterr().err == ""
        assert (out / "sweep.csv").read_bytes() == (quiet / "sweep.csv").read_bytes()


def test_sweep_writes_a_failed_solve_as_a_row_with_its_message(tmp_path, monkeypatch):
    # the solve of one N raises: the sweep goes on, exits 0 and writes that
    # N as one row with blank cells and the message in note
    solve = discrete.solve

    def failing_solve(system, shared=None):
        if system.n_points == 46:
            raise ArithmeticError("singular system at N = 46")
        return solve(system, shared)

    monkeypatch.setattr(discrete, "solve", failing_solve)
    out = tmp_path / "s"
    preset = str(PRESETS / "mas-divergence.json")
    assert cli.main(["sweep", "--config", preset, "--out", str(out)]) == 0
    rows = _read_table(out / "sweep.csv")
    cells = [(r["n_points"], r["surface"]) for r in rows]
    assert cells == [("40", "aux1"), ("40", "aux2"), ("46", "")]
    assert all(r["error"] and r["note"] == "" for r in rows[:2])
    failed = rows[2]
    assert failed["note"] == "singular system at N = 46"
    assert all(value == "" for name, value in failed.items() if name not in ("n_points", "note"))


def test_single_n_sweep_omits_growth(tmp_path):
    def mutate(doc):
        doc["solver"] = {"method": "mas", "n_list": [24]}

    config = _write_config(tmp_path, mutate)
    out = tmp_path / "s"
    assert cli.main(["sweep", "--config", str(config), "--out", str(out)]) == 0
    rows = _read_table(out / "sweep.csv")
    assert len(rows) == 2
    assert all(r["growth_factor"] == "" for r in rows)
    assert all(r["note"] == "" for r in rows)


def test_ellipse_sweep_defaults_to_the_residual_reference(tmp_path):
    def mutate(doc):
        doc["geometry"] = {
            "kind": "ellipse",
            "semi_major": 2.0,
            "semi_minor": 1.6,
            "aux": {"inner_scale": 0.7, "outer_scale": 1.6},
        }
        doc["solver"] = {"method": "nfm", "n_list": [20, 40]}
        # rings configured for fields; the residual reference has no use for them
        doc["output"]["rings"] = [[8.0, 1], [1.0, 2]]

    config = _write_config(tmp_path, mutate)
    out = tmp_path / "s"
    assert cli.main(["sweep", "--config", str(config), "--out", str(out)]) == 0
    rows = _read_table(out / "sweep.csv")
    errors = sorted({float(r["error"]) for r in rows})
    assert len(errors) == 2
    assert errors[1] > errors[0] > 0.0
    assert all(r["predicted"] == "" for r in rows)


def test_validate_subset_runs_one_group(tmp_path, capsys):
    assert cli.main(["validate", "--only", "specfun", "--out", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "PASS specfun.wronskian" in out
    assert "exact." not in out
    report = json.loads((tmp_path / "validate.json").read_text())
    assert report["passed"] is True
    assert [entry["passed"] for entry in report["groups"]["specfun"]] == [True, True]


def test_validate_rejects_unknown_groups(capsys):
    assert cli.main(["validate", "--only", "bessel"]) == 2
    assert "unknown group" in capsys.readouterr().err


def test_module_entry_point_runs():
    # the child imports the package from the src directory this process imported it from
    src = str(Path(cli.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-m", "cylwave.cli", "validate", "--only", "specfun"],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0
    assert "PASS specfun.wronskian" in proc.stdout


# Runs, in one interpreter, every output that the dense path reaches on the
# ellipse: both ellipse presets through solve and fields, a source-route
# solve of the currents preset, and the discrete and ellipse validate groups
# (criterion 08's printed line among them). argv: the presets directory;
# the files go to the working directory, under relative paths.
_ELLIPSE_OUTPUTS_CHILD = """
import contextlib, io, json, sys
from pathlib import Path
from cylwave import cli
presets = Path(sys.argv[1])
mas = json.loads((presets / "ellipse-external-currents.json").read_text())
mas["solver"]["method"] = "mas"
Path("ellipse-mas.json").write_text(json.dumps(mas))
runs = {"ellipse-mas-solve": ["solve", "--config", "ellipse-mas.json"]}
for stem in ("ellipse-external-currents", "ellipse-external-fields"):
    for command in ("solve", "fields"):
        runs[stem + "-" + command] = [command, "--config", str(presets / (stem + ".json"))]
for group in ("discrete", "ellipse"):
    runs["validate-" + group] = ["validate", "--only", group]
for name, argv in runs.items():
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main([*argv, "--out", name])
    Path(name, "printed").write_text(out.getvalue() + err.getvalue() + "exit %d" % code)
"""


def test_ellipse_outputs_keep_their_bytes_at_one_and_two_blas_threads(tmp_path):
    src = str(Path(cli.__file__).resolve().parents[1])
    trees = {}
    for threads in (1, 2):
        base = tmp_path / ("threads-%d" % threads)
        base.mkdir()
        proc = subprocess.run(
            [sys.executable, "-c", _ELLIPSE_OUTPUTS_CHILD, str(PRESETS)],
            env={**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": str(threads)},
            cwd=base, capture_output=True, text=True, timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        trees[threads] = {
            str(p.relative_to(base)): p.read_bytes() for p in base.rglob("*") if p.is_file()
        }
    assert len(trees[1]) == 18  # the mas config, 7 printed records and 10 written files
    assert b"ellipse.residuals_shrink: at N = 60" in trees[1]["validate-ellipse/printed"]
    moved = sorted(name for name in trees[1] if trees[1][name] != trees[2].get(name))
    assert moved == [] and trees[1].keys() == trees[2].keys()
