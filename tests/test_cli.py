"""Tests for the command-line interface."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import build_parser, main
from repro.experiments import experiment_ids


class TestParser:
    def test_list_command(self):
        args = build_parser().parse_args(["list"])
        assert args.command == "list"

    def test_run_command_defaults(self):
        args = build_parser().parse_args(["run", "table1"])
        assert args.experiment == "table1"
        assert args.scale is None
        assert args.seed == 0

    def test_run_with_options(self, tmp_path):
        args = build_parser().parse_args(
            ["run", "fig3a", "--scale", "small", "--seed", "3", "--out", str(tmp_path)]
        )
        assert args.scale == "small"
        assert args.seed == 3

    def test_bad_scale_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "fig3a", "--scale", "huge"])


class TestMain:
    def test_list_prints_all(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out.split()
        assert set(out) == set(experiment_ids())

    def test_unknown_experiment_errors(self, capsys):
        assert main(["run", "fig99"]) == 1
        assert "error" in capsys.readouterr().err

    def test_run_table1_and_save(self, tmp_path, capsys):
        assert main(["run", "table1", "--out", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "table1" in out
        assert (tmp_path / "table1.txt").exists()

    def test_version(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0


class TestExperimentCommand:
    def test_parser_accepts_runtime_flags(self, tmp_path):
        args = build_parser().parse_args(
            [
                "experiment", "fig6",
                "--workers", "3",
                "--checkpoint", str(tmp_path),
                "--resume",
            ]
        )
        assert args.command == "experiment"
        assert args.experiment == "fig6"
        assert args.workers == 3
        assert args.resume is True

    def test_show_plan_lists_cells(self, capsys):
        assert main(["experiment", "fig6", "--show-plan"]) == 0
        out = capsys.readouterr().out
        assert "plan fig6" in out
        for crawl in ("MHRW09", "RW09", "UIS09", "RW10", "S-WRW10"):
            assert crawl in out
        assert "[sweep]" in out

    def test_show_plan_marks_compute_cells(self, capsys):
        assert main(["experiment", "table1", "--show-plan"]) == 0
        assert "[compute]" in capsys.readouterr().out

    def test_runs_and_saves_like_run(self, tmp_path, capsys):
        assert main(["experiment", "table1", "--out", str(tmp_path)]) == 0
        assert "table1" in capsys.readouterr().out
        assert (tmp_path / "table1.txt").exists()

    def test_resume_requires_checkpoint(self, capsys):
        with pytest.raises(SystemExit):
            main(["experiment", "fig6", "--resume"])
        assert "--resume requires --checkpoint" in capsys.readouterr().err

    def test_unknown_experiment_errors(self, capsys):
        assert main(["experiment", "fig99", "--show-plan"]) == 1
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["0", "-2"])
    def test_non_positive_workers_rejected(self, capsys, value):
        """--workers shares the REPRO_WORKERS >= 1 contract."""
        assert main(["run", "table1", "--workers", value]) == 1
        assert "--workers must be >= 1" in capsys.readouterr().err
        assert main(["experiment", "table1", "--workers", value]) == 1
        assert "--workers must be >= 1" in capsys.readouterr().err


def test_cli_import_leaves_heavy_modules_out():
    """networkx and scipy load only when a run needs them."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    code = (
        "import sys, repro.cli; "
        "heavy = ('networkx', 'scipy', 'scipy.sparse', 'scipy.sparse.linalg'); "
        "print(sorted(m for m in heavy if m in sys.modules))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        check=True,
    )
    assert out.stdout.strip() == "[]"
