"""Command-line interface: file formats, exit codes, config layering, and
byte-level reproducibility."""

import argparse
import csv
import json
import re
from pathlib import Path

import numpy as np
import pytest

import mfbm.cli as cli
import mfbm.inference as inference
from mfbm import ModelSpec, PathSampler
from mfbm.cli import _build_parser, _load_config_args, main
from mfbm.errors import SegmentTooShortError
from mfbm.montecarlo import make_wavelet

from oracles import write_csv_loop


def run(argv):
    return main([str(a) for a in argv])


@pytest.fixture(scope="module")
def sim_path(tmp_path_factory):
    out = tmp_path_factory.mktemp("cli") / "path.csv"
    rc = run(["simulate", "--hurst", "0.6", "--sigma2", "1", "--n", "1500",
              "--delta", "0.03", "--seed", "5", "--out", out])
    assert rc == 0
    return out


class TestSimulate:
    def test_output_shape_and_sidecar(self, sim_path):
        rows = sim_path.read_text().strip().splitlines()
        assert rows[0] == "time,value"
        assert len(rows) == 1501
        meta = json.loads((sim_path.parent / (sim_path.name + ".meta.json")).read_text())
        assert meta["n"] == 1500
        assert meta["model"]["hurst"] == [0.6]

    def test_reproducible_bytes(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        argv = ["simulate", "--hurst", "0.3,0.7", "--sigma2", "2,1", "--omega", "4",
                "--n", "600", "--delta", "0.05", "--seed", "3"]
        assert run(argv + ["--out", a]) == 0
        assert run(argv + ["--out", b]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_bytes_match_per_row_writer(self, sim_path, tmp_path):
        """The CSV writer gives the bytes of the per-row repr loop it replaced,
        on the simulated path and on mixed rows like the overlay's."""
        path = PathSampler(ModelSpec.fbm(0.6, 1.0), 1500, 0.03).draw(5, stream=0)
        ref = tmp_path / "ref.csv"
        write_csv_loop(ref, ["time", "value"],
                       [(float(t), float(v)) for t, v in zip(path.times, path.values)])
        assert sim_path.read_bytes() == ref.read_bytes()
        rows = [(0, 0.1, -1e-300, 2.0, "", "excluded", "", ""),
                (7, 1 / 3, 5e17, -0.0, 1, "refine", 0.25, float("inf"))]
        header = ["k", "f", "log_f", "Y", "segment", "role", "fit_ols", "fit_fgls"]
        cli._write_csv(tmp_path / "new.csv", header, rows)
        write_csv_loop(ref, header, rows)
        assert (tmp_path / "new.csv").read_bytes() == ref.read_bytes()

    def test_bad_n_exit_2(self, tmp_path):
        for n, delta in (("0", "0.03"), ("100", "0")):
            rc = run(["simulate", "--hurst", "0.6", "--sigma2", "1", "--n", n,
                      "--delta", delta, "--out", tmp_path / "x.csv"])
            assert rc == 2

    def test_no_size_cap(self, tmp_path):
        """n above the old 8192 factorization cap draws and writes every row;
        the cap's flag is gone."""
        out = tmp_path / "big.csv"
        argv = ["simulate", "--hurst", "0.6", "--sigma2", "1", "--n", "20000",
                "--delta", "0.03", "--out", out]
        assert run(argv) == 0
        assert len(out.read_text().strip().splitlines()) == 20001
        assert run(argv + ["--max-n", "30000"]) == 2

    def test_mismatched_model_exit_2(self, tmp_path):
        rc = run(["simulate", "--hurst", "0.6,0.2", "--sigma2", "1", "--n", "100",
                  "--delta", "0.03", "--out", tmp_path / "x.csv"])
        assert rc == 2


class TestAnalyze:
    def test_spectrum_rows_match_grid(self, sim_path, tmp_path):
        out = tmp_path / "spec.csv"
        rc = run(["analyze", "--input", sim_path, "--f-min", "0.5", "--f-max", "16",
                  "--out", out])
        assert rc == 0
        rows = out.read_text().strip().splitlines()
        a_n = round(1500 * 0.03)
        assert len(rows) - 1 == a_n + 1
        assert rows[0] == "f,log_f,Y,count"

    def test_single_column_needs_delta(self, sim_path, tmp_path):
        vals = np.loadtxt(sim_path, delimiter=",", skiprows=1)[:, 1]
        single = tmp_path / "single.csv"
        np.savetxt(single, vals)
        rc = run(["analyze", "--input", single, "--f-min", "0.5", "--f-max", "16",
                  "--out", tmp_path / "s.csv"])
        assert rc == 2
        rc = run(["analyze", "--input", single, "--delta", "0.03", "--f-min", "0.5",
                  "--f-max", "16", "--out", tmp_path / "s.csv"])
        assert rc == 0

    def test_constant_input_degenerate_exit_2(self, tmp_path):
        flat = tmp_path / "flat.csv"
        flat.write_text("value\n" + "\n".join(["2.5"] * 400) + "\n")
        rc = run(["analyze", "--input", flat, "--delta", "0.05", "--f-min", "0.5",
                  "--f-max", "12", "--out", tmp_path / "s.csv"])
        assert rc == 2

    def test_nonuniform_times_rejected(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("time,value\n0.1,1\n0.2,2\n0.35,3\n0.4,4\n")
        rc = run(["analyze", "--input", bad, "--f-min", "0.5", "--f-max", "12",
                  "--out", tmp_path / "s.csv"])
        assert rc == 2

    @pytest.mark.parametrize("rel, rc", [(1e-8, 2), (1e-10, 0)])
    def test_delta_checked_against_time_column(self, sim_path, tmp_path, capsys, rel, rc):
        """--delta must match the time column's step 0.03 to 1e-9 relative."""
        assert run(["analyze", "--input", sim_path, "--delta", repr(0.03 * (1.0 + rel)),
                    "--f-min", "0.5", "--f-max", "16", "--out", tmp_path / "s.csv"]) == rc
        assert ("contradicts" in capsys.readouterr().err) == (rc == 2)

    def test_missing_file_exit_2(self, tmp_path):
        rc = run(["analyze", "--input", tmp_path / "nope.csv", "--f-min", "0.5",
                  "--f-max", "12", "--out", tmp_path / "s.csv"])
        assert rc == 2


class TestFit:
    def test_report_fields_and_reproducibility(self, sim_path, tmp_path):
        out = tmp_path / "fit.json"
        overlay = tmp_path / "overlay.csv"
        argv = ["fit", "--input", sim_path, "--f-min", "0.5", "--f-max", "16",
                "--out", out, "--overlay", overlay]
        rc = run(argv)
        assert rc == 0
        blob = out.read_bytes()
        report = json.loads(blob)
        assert report["K"] == 0
        assert report["accepted"] is True
        assert report["dof"] == 3
        assert report["config"]["m"] == 5
        assert "sigma_convention" not in report and "sigma_convention" not in report["config"]
        assert report["segments"][0]["flavor"] == "fgls"
        header = overlay.read_text().splitlines()[0]
        assert header == "k,f,log_f,Y,segment,role,fit_ols,fit_fgls"
        assert run(argv) == 0
        assert out.read_bytes() == blob

    def test_wide_bump_band(self, sim_path, tmp_path):
        """A bump on [8, 16] is wider than the first band-rule pair can settle;
        the fit goes through instead of exiting with a numeric failure."""
        out = tmp_path / "fit.json"
        rc = run(["fit", "--input", sim_path, "--f-min", "0.5", "--f-max", "16",
                  "--alpha", "8", "--beta", "16", "--out", out])
        assert rc in (0, 3)
        assert json.loads(out.read_text())["config"]["alpha"] == 8.0

    def test_narrow_bump_band_exit_4(self, sim_path, tmp_path, capsys):
        """A bump of width 0.1 underflows when squared: a numeric failure that
        names psi(0), not a degenerate path."""
        rc = run(["fit", "--input", sim_path, "--f-min", "0.5", "--f-max", "16",
                  "--alpha", "1", "--beta", "1.1", "--out", tmp_path / "fit.json"])
        assert rc == 4
        err = capsys.readouterr().err
        assert "psi(0)" in err and "no signal" not in err

    def test_bump_is_the_only_wavelet(self, sim_path, tmp_path):
        """There is no --wavelet flag, on the command line or in a config file."""
        out = tmp_path / "fit.json"
        argv = ["fit", "--input", sim_path, "--f-min", "0.5", "--f-max", "16", "--out", out]
        assert run(argv + ["--wavelet", "meyer-shifted"]) == 2
        cfg = tmp_path / "run.cfg"
        cfg.write_text("wavelet = bump\n")
        assert run(argv + ["--config", cfg]) == 2
        assert not out.exists()

    def test_fit_analyses_with_the_cached_wavelet(self, sim_path, tmp_path, monkeypatch):
        """`fit` takes its wavelet from make_wavelet's cache, so warming
        make_wavelet("bump", 5.0, 10.0) warms the wavelet the default fit uses."""
        used = []

        def recorded(path, w, **kwargs):
            used.append(w)
            return select_k(path, w, **kwargs)

        select_k = cli.select_k
        monkeypatch.setattr(cli, "select_k", recorded)
        assert run(["fit", "--input", sim_path, "--f-min", "0.5", "--f-max", "16",
                    "--out", tmp_path / "fit.json"]) == 0
        assert len(used) == 1 and used[0] is make_wavelet("bump", 5.0, 10.0)

    def test_kmax_exhausted_exit_3(self, tmp_path):
        # two well-separated regimes, fitted with k_max = 0: K = 0 must reject
        data = tmp_path / "m1.csv"
        rc = run(["simulate", "--hurst", "0.2,0.7", "--sigma2", "10,5", "--omega", "5",
                  "--n", "3000", "--delta", "0.03", "--seed", "2", "--out", data])
        assert rc == 0
        rc = run(["fit", "--input", data, "--f-min", "0.8", "--f-max", "16",
                  "--k-max", "0", "--out", tmp_path / "fit.json"])
        assert rc == 3
        report = json.loads((tmp_path / "fit.json").read_text())
        assert report["accepted"] is False

    @pytest.mark.parametrize("level", ["1.5", "0", "1"])
    def test_level_outside_unit_interval_exit_2(self, sim_path, tmp_path, capsys, level):
        out = tmp_path / "fit.json"
        rc = run(["fit", "--input", sim_path, "--f-min", "0.5", "--f-max", "16",
                  "--level", level, "--out", out])
        assert rc == 2
        assert "level" in capsys.readouterr().err
        assert not out.exists()

    def test_config_file_layering(self, sim_path, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("f_min = 0.5\nf_max = 16\nm = 5\nlevel = 0.05\n# comment\n")
        out = tmp_path / "fit.json"
        rc = run(["fit", "--config", cfg, "--input", sim_path, "--out", out])
        assert rc == 0
        report = json.loads(out.read_text())
        assert report["config"]["f_min"] == 0.5
        # explicit flag wins over the config value
        rc = run(["fit", "--config", cfg, "--input", sim_path, "--level", "0.2",
                  "--out", out])
        assert rc in (0, 3)
        assert json.loads(out.read_text())["config"]["level"] == 0.2

    @pytest.mark.parametrize("form", ["before", "equals"])
    def test_config_flag_forms(self, sim_path, tmp_path, form):
        """--config may come before the subcommand, and as --config=path."""
        cfg = tmp_path / "run.cfg"
        cfg.write_text("f_min = 0.5\nf_max = 16\nlevel = 0.2\n")
        out = tmp_path / "fit.json"
        tail = ["--input", sim_path, "--out", out]
        argv = (["--config", cfg, "fit"] + tail if form == "before"
                else ["fit", f"--config={cfg}"] + tail)
        assert run(argv) in (0, 3)
        config = json.loads(out.read_text())["config"]
        assert (config["f_min"], config["f_max"], config["level"]) == (0.5, 16.0, 0.2)

    def test_config_missing_value_exit_2(self, sim_path, tmp_path, capsys):
        out = tmp_path / "fit.json"
        rc = run(["fit", "--input", sim_path, "--f-min", "0.5", "--f-max", "16",
                  "--out", out, "--config"])
        assert rc == 2
        assert not out.exists()
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == ["error: argument --config: expected one argument"]

    def test_config_value_true_is_a_value(self, sim_path, tmp_path):
        cfg = tmp_path / "flag.cfg"
        cfg.write_text("overlay = true\n")
        assert _load_config_args(cfg) == ["--overlay", "true"]
        overlay = tmp_path / "ov.csv"
        cfg.write_text(f"f_min = 0.5\nf_max = 16\noverlay = {overlay}\n")
        rc = run(["fit", "--config", cfg, "--input", sim_path, "--out", tmp_path / "fit.json"])
        assert rc == 0
        assert overlay.read_text().splitlines()[0] == "k,f,log_f,Y,segment,role,fit_ols,fit_fgls"

    def test_overlay_reuses_the_fitted_spectrum(self, sim_path, tmp_path, monkeypatch):
        calls = []

        def counted(*args, **kwargs):
            calls.append(1)
            return spectrum(*args, **kwargs)

        spectrum = inference.spectrum
        monkeypatch.setattr(inference, "spectrum", counted)
        monkeypatch.setattr(cli, "spectrum", counted)
        rc = run(["fit", "--input", sim_path, "--f-min", "0.5", "--f-max", "16",
                  "--out", tmp_path / "fit.json", "--overlay", tmp_path / "ov.csv"])
        assert rc == 0
        assert len(calls) == 1


MC_ARGV = ["montecarlo", "--hurst", "0.5", "--sigma2", "1", "--n", "1200", "--delta", "0.03",
           "--f-min", "0.5", "--f-max", "16", "--seed", "4"]


class TestMontecarlo:
    def test_small_table(self, tmp_path):
        out = tmp_path / "table.json"
        raw = tmp_path / "raw.csv"
        rc = run(["montecarlo", "--hurst", "0.5", "--sigma2", "1", "--n", "1200",
                  "--delta", "0.03", "--f-min", "0.5", "--f-max", "16",
                  "--replications", "3", "--seed", "4", "--out", out, "--raw", raw])
        assert rc == 0
        table = json.loads(out.read_text())
        assert table["stats"]["completed"] == 3
        assert table["config"]["replications"] == 3
        assert len(table["stats"]["T_samples"]) == 3
        lines = raw.read_text().strip().splitlines()
        assert len(lines) == 4
        assert lines[0].startswith("stream,selected_k,T_k0")

    def test_zero_replications_exit_2(self, tmp_path):
        rc = run(["montecarlo", "--hurst", "0.5", "--sigma2", "1", "--n", "1200",
                  "--delta", "0.03", "--f-min", "0.5", "--f-max", "16",
                  "--replications", "0", "--out", tmp_path / "t.json"])
        assert rc == 2

    @pytest.mark.parametrize("flag, value, name", [("--level", "1.5", "level"),
                                                    ("--k-max", "-1", "k_max"),
                                                    ("--level", "1", "level")])
    def test_bad_analysis_setting_exit_2(self, tmp_path, capsys, flag, value, name):
        out = tmp_path / "t.json"
        rc = run(MC_ARGV + ["--replications", "2", flag, value, "--out", out])
        assert rc == 2
        assert name in capsys.readouterr().err
        assert not out.exists()

    def test_workers_write_the_same_files(self, tmp_path):
        """Replication r uses stream r whatever the pool: the raw rows are the
        same bytes, and the tables differ only in the echoed worker count."""
        tables = []
        for workers in (1, 2):
            out, raw = tmp_path / f"t{workers}.json", tmp_path / f"r{workers}.csv"
            assert run(MC_ARGV + ["--replications", "3", "--workers", workers,
                                  "--out", out, "--raw", raw]) == 0
            tables.append(json.loads(out.read_text()))
        assert (tmp_path / "r1.csv").read_bytes() == (tmp_path / "r2.csv").read_bytes()
        assert [t["config"].pop("workers") for t in tables] == [1, 2]
        assert tables[0] == tables[1]

    def test_failed_replication_row(self, tmp_path, monkeypatch):
        """A replication whose fit fails is counted, and its raw row holds only
        the stream and the error; the other rows are those of a clean run."""
        argv = MC_ARGV + ["--replications", "3", "--workers", "1"]
        assert run(argv + ["--out", tmp_path / "a.json", "--raw", tmp_path / "a.csv"]) == 0
        fit_fixed_k = inference.fit_fixed_k
        k0_calls = []

        def fail_second_k0(spec, w, k, **kwargs):
            if k == 0:
                k0_calls.append(k)
                if len(k0_calls) == 2:
                    raise SegmentTooShortError("forced")
            return fit_fixed_k(spec, w, k, **kwargs)

        monkeypatch.setattr(inference, "fit_fixed_k", fail_second_k0)
        assert run(argv + ["--out", tmp_path / "b.json", "--raw", tmp_path / "b.csv"]) == 0
        stats = json.loads((tmp_path / "b.json").read_text())["stats"]
        assert (stats["failures"], stats["completed"]) == (1, 2)
        clean, failed = (list(csv.reader((tmp_path / name).read_text().splitlines()))
                         for name in ("a.csv", "b.csv"))
        assert failed[2] == ["1"] + [""] * (len(clean[0]) - 2) + [
            "SegmentTooShortError: [K=0] forced"]
        assert failed[:2] + failed[3:] == clean[:2] + clean[3:]


def test_readme_names_every_flag():
    """README.md names every option of every command, and every --flag it
    names is an option (pip's --no-build-isolation aside)."""
    parser = _build_parser()
    commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    options = {opt for p in (parser, *commands.choices.values())
               for action in p._actions for opt in action.option_strings}
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    named = set(re.findall(r"(?<![\w-])--?[a-z][a-z0-9-]*", readme))
    assert not options - named, f"options README.md does not name: {sorted(options - named)}"
    strays = {flag for flag in named if flag.startswith("--")} - options - {"--no-build-isolation"}
    assert not strays, f"README.md names flags no command takes: {sorted(strays)}"
