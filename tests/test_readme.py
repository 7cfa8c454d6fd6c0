"""The README's documented defaults, schemas and quick start must match the code."""
import argparse
import os
import re

from paddle_lab import build_model, cli, model_to_dict
from paddle_lab.cli import build_parser, main
from paddle_lab.model import MODEL_JSON_KEYS

README = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "README.md")


def _readme() -> str:
    with open(README) as fh:
        return fh.read()


def test_readme_model_defaults_match_code():
    # rows of the "Model configuration JSON" table: | `key` | `default` | meaning |
    table = dict(re.findall(r"^\| `(\w+)` \| `([^`]+)` \|", _readme(), re.MULTILINE))
    assert set(table) == set(MODEL_JSON_KEYS)
    defaults = model_to_dict(build_model())
    assert {k: float(v) for k, v in table.items()} == defaults


def test_readme_quick_start_runs(capsys):
    match = re.search(r"^## Quick start \(library\)\n\n```python\n(.*?)^```$", _readme(),
                      re.MULTILINE | re.DOTALL)
    assert match, "README must have a 'Quick start (library)' python block"
    exec(compile(match.group(1), "README.md", "exec"), {})
    # three print lines: equilibrium, pull-in, fit (whose last field is the converged flag)
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 3 and lines[-1].endswith("True")


def test_readme_out_default_matches_parser():
    match = re.search(r"\(`--out`, default `([^`]+)`", _readme())
    assert match, "README must state the --out default"
    assert build_parser().parse_args(["design"]).out == match.group(1)


def test_readme_csv_schemas_match_cli(tmp_path):
    # run each command that writes a CSV once, then compare every header with its README line
    schemas = dict(re.findall(r"^- `(\w+\.csv)`: `([^`]+)`$", _readme(), re.MULTILINE))
    for argv in ("design", "curves --which capacitance --points 3",
                 "curves --which force --points 3", "curves --which film-beam --points 3",
                 "sweep --electrode bottom --v-max 50 --points 3", "calibrate", "measure --n 3"):
        assert main(argv.split() + ["--out", str(tmp_path)]) == 0
    written = sorted(p.name for p in tmp_path.glob("*.csv"))
    assert written == sorted(schemas)
    for name in written:
        with open(tmp_path / name, newline="") as fh:
            assert fh.readline() == schemas[name] + "\n", name


def test_readme_flag_table_matches_parser():
    # rows of the command line's flag table: | `command` | flags |
    rows = dict(re.findall(r"^\| `(\w+)` \| (.*--.*|none) \|$", _readme(), re.MULTILINE))
    (commands,) = [a for a in build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction)]
    assert set(rows) == set(commands.choices)
    for name, parser in commands.choices.items():
        flags = {s for a in parser._actions for s in a.option_strings} - {"-h", "--help"}
        assert set(re.findall(r"--[a-z0-9-]+", rows[name])) == flags - {"--config", "--out"}, name


def test_readme_states_the_reproducibility_contract():
    # data files are byte-identical only at one NumPy build and dispatch level, with the
    # bounds measured across levels; no sentence claims more
    text = " ".join(_readme().split())
    assert ("Data files are byte-identical for a fixed seed at one NumPy build and dispatch "
            "level; only the manifest timestamp differs between runs.") in text
    assert ("23 of the 88 files that `scripts/diff_cli_outputs.py` writes change, C columns "
            "by 1–2 ulp and fitted values by up to 5e-14 relative.") in text
    assert "byte-reproducible for a fixed seed" not in text


def test_readme_count_bound_matches_parser():
    # the exit-code text gives the parser's bound on --points and measure --n
    text = " ".join(_readme().split())
    assert (f"grid of 2 to {cli.MAX_COUNT} points (`--points`) or count of 1 to "
            f"{cli.MAX_COUNT} samples (`measure --n`)") in text
